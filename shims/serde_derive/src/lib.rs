//! Offline vendored `#[derive(Serialize, Deserialize)]` for the serde
//! shim (see `shims/serde`). Implemented directly on `proc_macro`
//! token trees — no `syn`/`quote` — because the build environment
//! cannot fetch crates.
//!
//! Supported shapes, and only these (everything this workspace
//! derives on):
//! - named structs, tuple structs (newtype and wider) and unit structs;
//! - enums with unit, tuple and struct variants, in serde's
//!   externally-tagged encoding.
//!
//! The type must not be generic, and no `#[serde(...)]` attribute is
//! recognised: either one is a compile error that names the type, never
//! a silently different encoding.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(message) => format!("::core::compile_error!({message:?});"),
    };
    code.parse()
        .expect("serde_derive shim generated invalid tokens")
}

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

fn is_ident(t: &TokenTree, word: &str) -> bool {
    matches!(t, TokenTree::Ident(id) if id.to_string() == word)
}

fn punct_char(t: &TokenTree) -> Option<char> {
    match t {
        TokenTree::Punct(p) => Some(p.as_char()),
        _ => None,
    }
}

/// Parses the derive input, or says (naming the type) why the shim
/// cannot derive it.
fn parse_item(input: TokenStream) -> Result<Item, String> {
    let has_serde_attr = has_serde_attr(input.clone());
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes and visibility to the `struct`/`enum` keyword.
    while i < tokens.len() && !is_ident(&tokens[i], "struct") && !is_ident(&tokens[i], "enum") {
        if punct_char(&tokens[i]) == Some('#') {
            skip_attrs(&tokens, &mut i);
        } else {
            i += 1;
        }
    }
    let is_enum = is_ident(&tokens[i], "enum");
    let name = match &tokens[i + 1] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other}"),
    };
    let unsupported = |why: &str| Err(format!("serde_derive shim: `{name}` {why}"));
    if has_serde_attr {
        return unsupported("has a `#[serde(...)]` attribute, and the shim supports none");
    }

    // The defining body is the next brace/paren group or a bare `;`
    // (unit struct).
    let kind = match tokens.get(i + 2) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                Kind::Enum(parse_variants(g))
            } else {
                Kind::Struct(Fields::Named(parse_named_fields(g)))
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => {
            Kind::Struct(Fields::Tuple(tuple_arity(g)))
        }
        Some(t) if punct_char(t) == Some(';') => Kind::Struct(Fields::Unit),
        Some(t) if punct_char(t) == Some('<') => {
            return unsupported("is generic, and the shim derives only non-generic types")
        }
        _ => return unsupported("has a shape the shim does not derive"),
    };
    Ok(Item { name, kind })
}

/// Whether any `#[serde(...)]` attribute appears anywhere in `stream`:
/// on the type, a field or a variant.
fn has_serde_attr(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    tokens.iter().enumerate().any(|(i, tok)| match tok {
        TokenTree::Group(g) => {
            let is_serde_attr = i > 0
                && punct_char(&tokens[i - 1]) == Some('#')
                && g.delimiter() == Delimiter::Bracket
                && g.stream()
                    .into_iter()
                    .next()
                    .is_some_and(|first| is_ident(&first, "serde"));
            is_serde_attr || has_serde_attr(g.stream())
        }
        _ => false,
    })
}

/// Consumes leading `#[...]` attributes.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) {
    while *i < tokens.len() && punct_char(&tokens[*i]) == Some('#') {
        *i += 2; // `#` + bracketed attribute group
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if *i < tokens.len() && is_ident(&tokens[*i], "pub") {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1; // pub(crate) / pub(super)
            }
        }
    }
}

/// Advances past the current element's type (or discriminant) up to and
/// including the next comma at angle-bracket depth zero.
fn skip_to_next_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i64;
    while *i < tokens.len() {
        match punct_char(&tokens[*i]) {
            Some('<') => depth += 1,
            Some('>') => depth -= 1,
            Some(',') if depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(group: &Group) -> Vec<String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        fields.push(id.to_string());
        i += 1; // name
        i += 1; // `:`
        skip_to_next_comma(&tokens, &mut i);
    }
    fields
}

fn tuple_arity(group: &Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut depth = 0i64;
    let mut arity = 0usize;
    let mut element_open = false;
    for tok in &tokens {
        match punct_char(tok) {
            Some('<') => depth += 1,
            Some('>') => depth -= 1,
            Some(',') if depth == 0 => element_open = false,
            _ => {
                if !element_open {
                    arity += 1;
                    element_open = true;
                }
            }
        }
    }
    arity
}

fn parse_variants(group: &Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(tuple_arity(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g))
            }
            _ => Fields::Unit,
        };
        skip_to_next_comma(&tokens, &mut i); // discriminant (if any) + `,`
        variants.push(Variant { name, fields });
    }
    variants
}

fn gen_serialize(item: &Item) -> String {
    let body = match &item.kind {
        Kind::Struct(fields) => ser_struct_body(fields),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&ser_variant_arm(v));
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}",
        name = item.name
    )
}

fn ser_struct_body(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Fields::Named(fs) => {
            let mut pushes = String::new();
            for n in fs {
                pushes.push_str(&format!(
                    "entries.push((\"{n}\".to_string(), ::serde::Serialize::to_value(&self.{n})));\n"
                ));
            }
            format!(
                "{{ let mut entries: Vec<(String, ::serde::Value)> = Vec::new();\n\
                 {pushes} ::serde::Value::Map(entries) }}"
            )
        }
    }
}

fn ser_variant_arm(v: &Variant) -> String {
    let name = &v.name;
    match &v.fields {
        Fields::Unit => format!("Self::{name} => ::serde::Value::Str(\"{name}\".to_string()),\n"),
        Fields::Tuple(n) => {
            let binders: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            let inner = if *n == 1 {
                "::serde::Serialize::to_value(f0)".to_string()
            } else {
                let items: Vec<String> = binders
                    .iter()
                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                    .collect();
                format!("::serde::Value::Seq(vec![{}])", items.join(", "))
            };
            format!(
                "Self::{name}({binds}) => ::serde::Value::Map(vec![(\"{name}\".to_string(), {inner})]),\n",
                binds = binders.join(", ")
            )
        }
        Fields::Named(fs) => {
            let items: Vec<String> = fs
                .iter()
                .map(|n| format!("(\"{n}\".to_string(), ::serde::Serialize::to_value({n}))"))
                .collect();
            format!(
                "Self::{name} {{ {binds} }} => ::serde::Value::Map(vec![(\"{name}\".to_string(), \
                 ::serde::Value::Map(vec![{items}]))]),\n",
                binds = fs.join(", "),
                items = items.join(", ")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let body = match &item.kind {
        Kind::Struct(fields) => de_struct_body(&item.name, fields),
        Kind::Enum(variants) => de_enum_body(&item.name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}",
        name = item.name
    )
}

fn de_named_fields_init(fs: &[String]) -> String {
    let inits: Vec<String> = fs
        .iter()
        .map(|n| format!("{n}: ::serde::field(entries, \"{n}\")?"))
        .collect();
    inits.join(", ")
}

fn de_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => "Ok(Self)".to_string(),
        Fields::Tuple(1) => "Ok(Self(::serde::Deserialize::from_value(v)?))".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "match v {{ ::serde::Value::Seq(items) if items.len() == {n} => \
                 Ok(Self({items})), \
                 other => Err(::serde::DeError::expected(\"{n}-tuple for {name}\", other)) }}",
                items = items.join(", ")
            )
        }
        Fields::Named(fs) => format!(
            "match v {{ ::serde::Value::Map(m) => {{ let entries = m.as_slice(); Ok(Self {{ {inits} }}) }}, \
             other => Err(::serde::DeError::expected(\"map for struct {name}\", other)) }}",
            inits = de_named_fields_init(fs)
        ),
    }
}

fn de_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut data_arms = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.fields {
            Fields::Unit => {
                unit_arms.push_str(&format!("\"{vn}\" => Ok(Self::{vn}),\n"));
            }
            Fields::Tuple(1) => {
                data_arms.push_str(&format!(
                    "\"{vn}\" => Ok(Self::{vn}(::serde::Deserialize::from_value(inner)?)),\n"
                ));
            }
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                    .collect();
                data_arms.push_str(&format!(
                    "\"{vn}\" => match inner {{ ::serde::Value::Seq(items) if items.len() == {n} => \
                     Ok(Self::{vn}({items})), \
                     other => Err(::serde::DeError::expected(\"{n}-tuple for {name}::{vn}\", other)) }},\n",
                    items = items.join(", ")
                ));
            }
            Fields::Named(fs) => {
                data_arms.push_str(&format!(
                    "\"{vn}\" => match inner {{ ::serde::Value::Map(m) => {{ let entries = m.as_slice(); \
                     Ok(Self::{vn} {{ {inits} }}) }}, \
                     other => Err(::serde::DeError::expected(\"map for {name}::{vn}\", other)) }},\n",
                    inits = de_named_fields_init(fs)
                ));
            }
        }
    }
    format!(
        "match v {{\n\
         ::serde::Value::Str(s) => match s.as_str() {{\n\
         {unit_arms}\
         other => Err(::serde::DeError::msg(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
         }},\n\
         ::serde::Value::Map(entries) if entries.len() == 1 => {{\n\
         let (tag, inner) = (&entries[0].0, &entries[0].1);\n\
         match tag.as_str() {{\n\
         {data_arms}\
         other => Err(::serde::DeError::msg(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
         }}\n\
         }},\n\
         other => Err(::serde::DeError::expected(\"enum {name}\", other)),\n\
         }}"
    )
}
