//! Output checks computed apart from the program: ACV by direct
//! enumeration of the window (Definition 3.6), the γ tests (Definition
//! 3.7), a batch rebuild of the streamed window, and the batch
//! classifier. None of them compares against stored output.

use std::collections::HashMap;

use hypermine_core::{AssociationClassifier, AssociationModel, ModelConfig};
use hypermine_data::{AttrId, Database, Value};
use hypermine_hypergraph::{DirectedHypergraph, EdgeId};
use hypermine_serve::ModelSnapshot;

/// A small deterministic generator for sampling (xorshift64*).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n.max(1)
    }
}

/// ACV of `tail → head` by enumeration: for each tail-value row, the
/// count of its most frequent head value; summed and divided by `m`.
/// An empty tail gives the baseline `ACV(∅, {h})`.
pub fn acv(db: &Database, tail: &[AttrId], head: AttrId) -> f64 {
    let k = db.k() as usize;
    let m = db.num_obs();
    let rows = k.pow(tail.len() as u32);
    let mut counts = vec![0u64; rows * k];
    for o in 0..m {
        let row = tail
            .iter()
            .fold(0, |r, &t| r * k + db.value(t, o) as usize - 1);
        counts[row * k + db.value(head, o) as usize - 1] += 1;
    }
    let total: u64 = counts
        .chunks_exact(k)
        .map(|c| *c.iter().max().expect("k >= 1"))
        .sum();
    total as f64 / m as f64
}

/// A candidate edge: a one- or two-attribute tail and a head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Candidate {
    a: u32,
    b: Option<u32>,
    h: u32,
}

/// Recomputes ACV for `samples` random candidate edges and as many
/// random candidate 2-to-1 hyperedges, plus `samples` edges the graph
/// kept, and checks each is kept exactly when its γ test passes, with
/// the recomputed ACV as its weight (bit for bit).
pub fn check_acv(
    graph: &DirectedHypergraph,
    db: &Database,
    cfg: &ModelConfig,
    rng: &mut Rng,
    samples: usize,
) -> Result<(), String> {
    let n = db.num_attrs();
    if n < 3 || graph.num_edges() == 0 {
        return Err(format!(
            "degenerate model: {n} attributes, {} edges",
            graph.num_edges()
        ));
    }
    let mut cands = Vec::with_capacity(3 * samples);
    for _ in 0..samples {
        let a = rng.below(n) as u32;
        let h = (a as usize + 1 + rng.below(n - 1)) % n;
        cands.push(Candidate {
            a,
            b: None,
            h: h as u32,
        });
        let mut pick = [rng.below(n), rng.below(n - 1), rng.below(n - 2)];
        // Three distinct attributes: shift later picks past earlier ones.
        if pick[1] >= pick[0] {
            pick[1] += 1;
        }
        let (lo, hi) = (pick[0].min(pick[1]), pick[0].max(pick[1]));
        if pick[2] >= lo {
            pick[2] += 1;
        }
        if pick[2] >= hi {
            pick[2] += 1;
        }
        cands.push(Candidate {
            a: lo as u32,
            b: Some(hi as u32),
            h: pick[2] as u32,
        });
        let e = graph.edge(EdgeId::new(rng.below(graph.num_edges()) as u32));
        let t = e.tail();
        cands.push(Candidate {
            a: t[0].raw(),
            b: t.get(1).map(|x| x.raw()),
            h: e.head()[0].raw(),
        });
    }
    // One pass over the kept edges finds every sampled candidate.
    let mut kept: HashMap<Candidate, f64> = cands.iter().map(|&c| (c, f64::NAN)).collect();
    for (_, e) in graph.edges() {
        let (t, hd) = (e.tail(), e.head());
        if hd.len() != 1 || t.is_empty() || t.len() > 2 {
            return Err(format!(
                "edge outside Definition 3.7: |T|={}, |H|={}",
                t.len(),
                hd.len()
            ));
        }
        let c = Candidate {
            a: t[0].raw(),
            b: t.get(1).map(|x| x.raw()),
            h: hd[0].raw(),
        };
        if let Some(w) = kept.get_mut(&c) {
            *w = e.weight();
        }
    }
    for c in cands {
        let (a, h) = (AttrId::new(c.a), AttrId::new(c.h));
        let (value, passes) = match c.b {
            None => {
                let value = acv(db, &[a], h);
                let base = acv(db, &[], h);
                (value, value > 0.0 && value >= cfg.gamma_edge * base)
            }
            Some(b) => {
                let b = AttrId::new(b);
                let value = acv(db, &[a, b], h);
                let floor = acv(db, &[a], h).max(acv(db, &[b], h));
                (value, value > 0.0 && value >= cfg.gamma_hyper * floor)
            }
        };
        let weight = kept[&c];
        let is_kept = !weight.is_nan();
        if is_kept != passes {
            return Err(format!(
                "{c:?}: kept={is_kept} but the γ test says {passes} (ACV {value})"
            ));
        }
        if is_kept && weight.to_bits() != value.to_bits() {
            return Err(format!("{c:?}: weight {weight} but enumerated ACV {value}"));
        }
    }
    Ok(())
}

/// The snapshot's edges, in id order, equal a batch build of its window:
/// same tails, heads, and ACV bits. Returns the batch model for reuse.
pub fn check_against_batch(snap: &ModelSnapshot) -> Result<AssociationModel, String> {
    let batch = AssociationModel::build(snap.database(), snap.config())
        .map_err(|e| format!("batch build failed: {e}"))?;
    let (g, b) = (snap.graph(), batch.hypergraph());
    if g.num_edges() != b.num_edges() {
        return Err(format!(
            "streamed snapshot has {} edges, batch build {}",
            g.num_edges(),
            b.num_edges()
        ));
    }
    for ((id, x), (_, y)) in g.edges().zip(b.edges()) {
        if x.tail() != y.tail()
            || x.head() != y.head()
            || x.weight().to_bits() != y.weight().to_bits()
        {
            return Err(format!("edge {id:?} differs from the batch build"));
        }
    }
    Ok(batch)
}

/// Sampled `predict_or_majority` answers equal the batch classifier on
/// the snapshot's dominator, with the model's majority as fallback.
pub fn check_predictions(
    snap: &ModelSnapshot,
    batch: &AssociationModel,
    rng: &mut Rng,
    samples: usize,
) -> Result<(), String> {
    let known = snap.known();
    let clf = AssociationClassifier::new(batch, known);
    let db = snap.database();
    let targets: Vec<AttrId> = db.attrs().filter(|&a| !snap.is_leading(a)).collect();
    if targets.is_empty() {
        return Err("the dominator covers every attribute".into());
    }
    let mut scratch = snap.scratch();
    for _ in 0..samples {
        let o = rng.below(db.num_obs());
        let target = targets[rng.below(targets.len())];
        let row: Vec<Value> = db.attrs().map(|a| db.value(a, o)).collect();
        let values: Vec<Value> = known.iter().map(|&a| row[a.index()]).collect();
        let want = clf
            .predict(&values, target)
            .map(|p| p.value)
            .unwrap_or_else(|| batch.majority_value(target).unwrap_or(1));
        let got = snap.predict_or_majority(&mut scratch, &row, target);
        if got != want {
            return Err(format!(
                "obs {o} target {target:?}: served {got}, classifier {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerated_acv_matches_hand_counts() {
        // x = 1 1 2 2, y = 1 2 2 2: baseline(y) = 3/4; x → y keeps one
        // of two in row x=1 and both in row x=2.
        let db = Database::from_columns(
            vec!["x".into(), "y".into()],
            2,
            vec![vec![1, 1, 2, 2], vec![1, 2, 2, 2]],
        )
        .unwrap();
        let (x, y) = (AttrId::new(0), AttrId::new(1));
        assert_eq!(acv(&db, &[], y), 0.75);
        assert_eq!(acv(&db, &[x], y), 0.75);
        assert_eq!(acv(&db, &[y], x), 0.75);
    }

    #[test]
    fn the_acv_check_passes_on_a_built_model_and_catches_a_wrong_weight() {
        let cols: Vec<Vec<Value>> = (0..5)
            .map(|c| {
                (0..90)
                    .map(|i| ((i * (c + 1) / 7 + c) % 3 + 1) as Value)
                    .collect()
            })
            .collect();
        let names = (0..5).map(|c| format!("a{c}")).collect();
        let db = Database::from_columns(names, 3, cols).unwrap();
        let cfg = ModelConfig::default();
        let model = AssociationModel::build(&db, &cfg).unwrap();
        check_acv(model.hypergraph(), &db, &cfg, &mut Rng::new(1), 40).unwrap();
        let mut g = model.hypergraph().clone();
        for (id, _) in model.hypergraph().edges() {
            g.set_weight(id, 0.5).unwrap();
        }
        assert!(check_acv(&g, &db, &cfg, &mut Rng::new(1), 40).is_err());
    }
}
