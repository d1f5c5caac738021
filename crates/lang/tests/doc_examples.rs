//! CI enforcement for `docs/QUERYLANG.md`: every fenced ```sea block
//! must parse, and every ```sea-error block (first line = statement,
//! remaining lines = expected rendering) must reproduce its error
//! byte-for-byte. The language reference cannot drift from the parser.
//!
//! The examples also seed a mutation corpus: byte-level edits of them
//! must never panic the parser, every error's span must lie inside the
//! statement on char boundaries, and every statement that still parses
//! must print to a fixed point of print ∘ parse. Tokens borrow their
//! text from the statement, so a slicing bug in the lexer shows here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use sea_lang::parse;

fn querylang_md() -> String {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "docs",
        "QUERYLANG.md",
    ]
    .iter()
    .collect();
    std::fs::read_to_string(&path).expect("docs/QUERYLANG.md exists")
}

/// Extracts the bodies of fenced code blocks with the exact info string
/// `lang` from `text`.
fn fenced_blocks(text: &str, lang: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<Vec<&str>> = None;
    for line in text.lines() {
        match &mut current {
            None if line.trim() == format!("```{lang}") => current = Some(Vec::new()),
            None => {}
            Some(body) => {
                if line.trim() == "```" {
                    blocks.push(body.join("\n"));
                    current = None;
                } else {
                    body.push(line);
                }
            }
        }
    }
    assert!(current.is_none(), "unterminated ```{lang} block");
    blocks
}

#[test]
fn every_sea_block_parses() {
    let doc = querylang_md();
    let blocks = fenced_blocks(&doc, "sea");
    assert!(
        blocks.len() >= 10,
        "expected the reference to cover at least 10 statement examples, found {}",
        blocks.len()
    );
    for block in &blocks {
        for stmt in block
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("--"))
        {
            if let Err(e) = parse(stmt) {
                panic!("QUERYLANG.md example failed to parse:\n{e}");
            }
        }
    }
}

#[test]
fn every_sea_error_block_reproduces_its_rendering() {
    let doc = querylang_md();
    let blocks = fenced_blocks(&doc, "sea-error");
    assert!(
        blocks.len() >= 8,
        "expected the error catalog to cover at least 8 errors, found {}",
        blocks.len()
    );
    for block in &blocks {
        let (stmt, expected) = block
            .split_once('\n')
            .expect("sea-error block: statement line then rendering");
        let err = parse(stmt).unwrap_err().to_string();
        assert_eq!(
            err, expected,
            "QUERYLANG.md error rendering drifted for {stmt:?}"
        );
    }
}

#[test]
fn canonical_prints_in_examples_are_fixed_points() {
    // Examples written in canonical form should re-print identically —
    // keeps the doc's spelling aligned with what users see echoed back.
    let doc = querylang_md();
    for block in fenced_blocks(&doc, "sea") {
        for stmt in block
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("--"))
        {
            let plan = parse(stmt).unwrap();
            let printed = plan.to_string();
            let reparsed = parse(&printed).unwrap();
            assert_eq!(plan, reparsed, "round trip failed for {stmt:?}");
        }
    }
}

/// Every statement of the ```sea blocks and the statement line of every
/// ```sea-error block.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let doc = querylang_md();
        let mut stmts: Vec<String> = fenced_blocks(&doc, "sea")
            .iter()
            .flat_map(|block| block.lines().map(str::to_string).collect::<Vec<_>>())
            .filter(|l| !l.trim().is_empty())
            .collect();
        for block in fenced_blocks(&doc, "sea-error") {
            stmts.extend(block.lines().next().map(str::to_string));
        }
        stmts
    })
}

/// Bytes a mutation writes: the language's punctuation, digits, letters
/// and spaces, the comment and sign characters, and the leading bytes of
/// multi-byte characters (which `from_utf8_lossy` turns into U+FFFD).
const ALPHABET: &[u8] = b"()[],.-+eE0123456789dDxAINSELECTWHRmaxcount \n\t\xc3\xa9\xe2\x88";

/// Applies one edit to `bytes`: delete, insert, overwrite, or duplicate
/// a short run, at `at` (taken modulo the length).
fn mutate(bytes: &mut Vec<u8>, op: u8, at: usize, pick: usize) {
    let b = ALPHABET[pick % ALPHABET.len()];
    let at = at % (bytes.len() + 1);
    match op {
        0 if at < bytes.len() => {
            bytes.remove(at);
        }
        1 if at < bytes.len() => bytes[at] = b,
        2 => {
            let run: Vec<u8> = bytes[at..].iter().take(1 + pick % 6).copied().collect();
            bytes.splice(at..at, run);
        }
        _ => bytes.insert(at, b),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_examples_never_panic_and_keep_their_invariants(
        pick in 0..10_000usize,
        edits in prop::collection::vec((0..4u8, 0..10_000usize, 0..10_000usize), 1..5),
    ) {
        let seed = &corpus()[pick % corpus().len()];
        let mut bytes = seed.clone().into_bytes();
        for &(op, at, b) in &edits {
            mutate(&mut bytes, op, at, b);
        }
        let stmt = String::from_utf8_lossy(&bytes).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse(&stmt).map_err(|e| (e.start, e.end, e.to_string()))
        }));
        let Ok(parsed) = outcome else {
            return Err(TestCaseError::fail(format!("parse panicked on {stmt:?}")));
        };
        match parsed {
            Err((start, end, rendered)) => {
                prop_assert!(
                    start <= end && end <= stmt.len(),
                    "span {}..{} outside {:?}: {}", start, end, stmt, rendered
                );
                prop_assert!(
                    stmt.is_char_boundary(start) && stmt.is_char_boundary(end),
                    "span {}..{} splits a char of {:?}", start, end, stmt
                );
            }
            Ok(plan) => {
                let printed = plan.to_string();
                let reparsed = parse(&printed);
                prop_assert_eq!(reparsed.as_ref(), Ok(&plan), "printed: {}", printed);
                if let Ok(again) = reparsed {
                    prop_assert_eq!(again.to_string(), printed);
                }
            }
        }
    }
}
