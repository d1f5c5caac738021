//! The contiguous layout against blocks built one by one. Whatever the
//! rows (NaN, ±inf, ±0.0), the block size and the sequence of loads,
//! inserts and deletes, every block a node serves has the ids, columns,
//! byte codes, zone map, size and length of the block a small reference
//! function makes from the same rows, and a replica's blocks are its
//! primary's.
//! A batch with a row of the wrong arity is refused whole and leaves
//! every block as it was.

use sea_common::{kernels, Record, Rect};
use sea_storage::{DataNode, FaultPlan, Partitioning, StorageCluster};

const BLOCK_SIZES: [usize; 4] = [1, 7, 64, 512];

/// A deterministic stream of pseudo-random numbers.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = (self.0)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value in `[0, 100)` on a 0.5 grid, or one time in four a value
    /// no range can hold or only a signed-zero rule decides.
    fn value(&mut self) -> f64 {
        const EDGES: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        if self.below(4) == 0 {
            EDGES[self.below(EDGES.len())]
        } else {
            self.below(200) as f64 / 2.0
        }
    }

    /// `n` records with ids from `*next_id`, of `dims` values each,
    /// written the way a table arrives.
    fn records(&mut self, n: usize, dims: usize, next_id: &mut u64) -> Vec<Record> {
        (0..n)
            .map(|_| {
                *next_id += 1;
                Record::new(*next_id, (0..dims).map(|_| self.value()).collect())
            })
            .collect()
    }

    /// `n >= 1` records of `dims >= 1` values but one, which is shorter:
    /// a batch the cluster must refuse whole.
    fn short_batch(&mut self, n: usize, dims: usize, next_id: &mut u64) -> Vec<Record> {
        let mut records = self.records(n, dims, next_id);
        let row = self.below(n);
        let len = self.below(dims);
        records[row].values.truncate(len);
        records
    }

    /// A box of `dims` dimensions inside `[-10, 110]`, `lo <= hi`.
    fn rect(&mut self, dims: usize) -> Rect {
        let (lo, hi) = (0..dims)
            .map(|_| {
                let (a, b) = (
                    self.below(240) as f64 / 2.0 - 10.0,
                    self.below(240) as f64 / 2.0 - 10.0,
                );
                (a.min(b), a.max(b))
            })
            .unzip();
        Rect::new(lo, hi).unwrap()
    }
}

/// A block built from its rows alone (at least one, all of one arity
/// of at least one): ids, one column per dimension, per-dimension bounds
/// of the finite values (seeded from the first, ±1e300 where there is
/// none), each value's byte code under those bounds and the rows' bytes.
struct Reference {
    ids: Vec<u64>,
    cols: Vec<Vec<f64>>,
    bounds: (Vec<f64>, Vec<f64>),
    codes: Vec<Vec<u8>>,
    bytes: u64,
}

fn reference(rows: &[Record]) -> Reference {
    let dims = rows[0].values.len();
    let cols: Vec<Vec<f64>> = (0..dims)
        .map(|d| rows.iter().map(|r| r.values[d]).collect())
        .collect();
    let bounds = cols
        .iter()
        .map(|col| {
            let mut finite = col.iter().copied().filter(|v| v.is_finite());
            let Some(first) = finite.next() else {
                return (-1e300, 1e300);
            };
            finite.fold((first, first), |(lo, hi), v| {
                (if v < lo { v } else { lo }, if v > hi { v } else { hi })
            })
        })
        .unzip();
    let (lo, hi): &(Vec<f64>, Vec<f64>) = &bounds;
    let codes = (cols.iter().enumerate())
        .map(|(d, col)| {
            col.iter()
                .map(|&v| kernels::byte_code(lo[d], hi[d], v))
                .collect()
        })
        .collect();
    Reference {
        ids: rows.iter().map(|r| r.id).collect(),
        cols,
        bounds,
        codes,
        bytes: rows.iter().map(|r| 8 + 8 * r.values.len() as u64).sum(),
    }
}

/// A node as a list of blocks, each the rows it was built from.
type Model = Vec<Vec<Record>>;

fn model_append(model: &mut Model, records: &[Record], block_size: usize) {
    model.extend(records.chunks(block_size.max(1)).map(<[Record]>::to_vec));
}

/// What a box delete does to the rows: a block loses the rows whose
/// every value lies in the box (NaN lies in none) and is rebuilt from
/// the rows it keeps; an emptied block goes.
fn model_delete(model: &mut Model, region: &Rect) -> usize {
    let inside = |r: &Record| {
        (r.values.iter().enumerate()).all(|(d, &v)| region.lo()[d] <= v && v <= region.hi()[d])
    };
    let mut removed = 0;
    for rows in model.iter_mut() {
        let before = rows.len();
        rows.retain(|r| !inside(r));
        removed += before - rows.len();
    }
    model.retain(|rows| !rows.is_empty());
    removed
}

fn bits(col: &[f64]) -> Vec<u64> {
    col.iter().map(|v| v.to_bits()).collect()
}

/// Every block of `node` equals, bit for bit, the reference block of
/// the model's rows at its position.
fn assert_matches(node: &DataNode, model: &Model, what: &str) {
    assert_eq!(node.blocks().len(), model.len(), "{what}: blocks");
    for (k, (block, rows)) in node.blocks().iter().zip(model).enumerate() {
        let want = reference(rows);
        assert_eq!(block.len(), rows.len(), "{what}, block {k}: length");
        assert_eq!(block.ids(), want.ids, "{what}, block {k}: ids");
        assert_eq!(block.dims(), want.cols.len(), "{what}, block {k}: arity");
        for (d, col) in want.cols.iter().enumerate() {
            assert_eq!(
                bits(block.col(d)),
                bits(col),
                "{what}, block {k}: column {d}"
            );
            assert_eq!(
                bits(&block.cols()[d]),
                bits(col),
                "{what}, block {k}: cols()[{d}]"
            );
            assert_eq!(
                block.codes(d),
                want.codes[d],
                "{what}, block {k}: codes {d}"
            );
        }
        let bounds = block.bounds().map(|z| (bits(z.lo()), bits(z.hi())));
        let want_bounds = Some((bits(&want.bounds.0), bits(&want.bounds.1)));
        assert_eq!(bounds, want_bounds, "{what}, block {k}: zone map");
        assert_eq!(block.bytes(), want.bytes, "{what}, block {k}: bytes");
        for (i, row) in rows.iter().enumerate() {
            let got = block.record(i);
            assert_eq!(got.id, row.id, "{what}, block {k}, row {i}: id");
            let values: Vec<f64> = want.cols.iter().map(|c| c[i]).collect();
            assert_eq!(
                bits(&got.values),
                bits(&values),
                "{what}, block {k}, row {i}"
            );
        }
    }
    assert_eq!(
        node.len(),
        model.iter().map(Vec::len).sum::<usize>(),
        "{what}: rows"
    );
    let bytes: u64 = model.iter().map(|rows| reference(rows).bytes).sum();
    assert_eq!(node.bytes(), bytes, "{what}: bytes");
}

/// A load, then inserts and box deletes in a random order, on a
/// one-node cluster of a table of one to three dimensions: after every
/// step the node's blocks, and a clone's, are the reference blocks. One
/// insert in four carries a short row and is refused, as is a load
/// that does.
#[test]
fn a_nodes_blocks_equal_blocks_built_one_by_one() {
    let mut rng = Rng(41);
    for block_size in BLOCK_SIZES {
        for trial in 0..4 {
            let (mut c, mut model, mut next_id) =
                (StorageCluster::new(1, block_size), Model::new(), 0);
            let dims = 1 + rng.below(3);
            let n = 1 + rng.below(3 * block_size + 9);
            let refused = rng.short_batch(n, dims, &mut next_id);
            assert!(c.load_table("t", refused, Partitioning::Hash).is_err());
            assert!(c.stats("t").is_err(), "a refused load leaves no table");
            let records = rng.records(n, dims, &mut next_id);
            model_append(&mut model, &records, block_size);
            c.load_table("t", records, Partitioning::Hash).unwrap();
            for step in 0..14 {
                let what = format!("blocks of {block_size}, trial {trial}, step {step}");
                match rng.below(4) {
                    0 => {
                        let region = rng.rect(dims);
                        let want = model_delete(&mut model, &region);
                        assert_eq!(
                            c.delete_region("t", &region).unwrap(),
                            want,
                            "{what}: rows deleted"
                        );
                    }
                    1 => {
                        let n = 1 + rng.below(3 * block_size + 9);
                        let refused = rng.short_batch(n, dims, &mut next_id);
                        assert!(c.insert("t", refused).is_err(), "{what}: short row");
                    }
                    _ => {
                        let n = rng.below(3 * block_size + 9);
                        let records = rng.records(n, dims, &mut next_id);
                        model_append(&mut model, &records, block_size);
                        c.insert("t", records).unwrap();
                    }
                }
                let node = c.serving_node("t", 0).unwrap().0;
                assert_matches(node, &model, &what);
                assert_matches(&node.clone(), &model, &format!("{what}, clone"));
            }
        }
    }
}

/// Loads, inserts and region deletes on a replicated cluster: every
/// partition's primary serves the reference blocks of the rows routed to
/// it, and so does its replica. A load or insert with a short row is
/// refused and leaves both as they were.
#[test]
fn primaries_and_replicas_equal_blocks_built_one_by_one() {
    const NODES: usize = 3;
    let mut rng = Rng(7);
    for block_size in BLOCK_SIZES {
        let mut c = StorageCluster::with_replication(NODES, block_size);
        let mut models = vec![Model::new(); NODES];
        let mut next_id = 0;
        let route = |models: &mut Vec<Model>, records: &[Record]| {
            let mut per_node = vec![Vec::new(); NODES];
            for r in records {
                per_node[Partitioning::Hash.node_for(r, NODES)].push(r.clone());
            }
            for (model, batch) in models.iter_mut().zip(&per_node) {
                model_append(model, batch, block_size);
            }
        };
        let n = 2 * block_size * NODES + 5;
        let refused = rng.short_batch(n, 2, &mut next_id);
        assert!(c.load_table("t", refused, Partitioning::Hash).is_err());
        let rows = rng.records(n, 2, &mut next_id);
        route(&mut models, &rows);
        c.load_table("t", rows, Partitioning::Hash).unwrap();
        for step in 0..10 {
            match rng.below(3) {
                0 => {
                    let n = 1 + rng.below(2 * block_size + 3);
                    let rows = rng.records(n, 2, &mut next_id);
                    route(&mut models, &rows);
                    c.insert("t", rows).unwrap();
                }
                1 => {
                    let region = rng.rect(2);
                    let want: usize = models.iter_mut().map(|m| model_delete(m, &region)).sum();
                    assert_eq!(c.delete_region("t", &region).unwrap(), want);
                }
                _ => {
                    let n = 1 + rng.below(2 * block_size + 3);
                    let refused = rng.short_batch(n, 2, &mut next_id);
                    assert!(c.insert("t", refused).is_err(), "step {step}: short row");
                }
            }
            for (node, model) in models.iter().enumerate() {
                let what = format!("blocks of {block_size}, step {step}, partition {node}");
                assert_matches(c.serving_node("t", node).unwrap().0, model, &what);
                let mut failed = c.clone();
                failed.set_fault_plan(FaultPlan::new(0).with_crash(node, 0));
                let (replica, failover) = failed.serving_node("t", node).unwrap();
                assert!(failover);
                assert_matches(replica, model, &format!("{what}, replica"));
            }
        }
    }
}
