//! The `serve_mix` request stream: a fixed composition of request kinds
//! in a seeded order, with seeded parameters that make every
//! non-repeat request a distinct key.

use m3d_serve::protocol::Request;
use serde::Value;

/// The kinds of request the mix sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A key from [`repeat_keys`], answered by the response cache.
    Repeat,
    /// A `sensitivity` run with a seed of its own (400 samples).
    Sensitivity,
    /// A quick `pd_flow` with an activity of its own, warm-started from
    /// the primed base flow's placement.
    Flow,
    /// An `ingest` upload of an example netlist with a renamed top cell.
    Ingest,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 4] = [Kind::Repeat, Kind::Sensitivity, Kind::Flow, Kind::Ingest];

    /// Short name for metrics (`serve.<name>_ms`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Repeat => "hit",
            Kind::Sensitivity => "sensitivity",
            Kind::Flow => "flow",
            Kind::Ingest => "ingest",
        }
    }

    /// Share of the stream in permille. Repeats are cheapest and flows
    /// dearest, so sorted by latency the median lands inside the
    /// sensitivity band and the tail percentile a run reports (p99.9
    /// from 10,000 answered requests on) inside the flow band, the top
    /// 1 %. Flows are the kind whose latency moves most with the
    /// machine's load, so they are kept to 1 %.
    pub fn permille(self) -> usize {
        match self {
            Kind::Repeat => 300,
            Kind::Sensitivity => 660,
            Kind::Flow => 10,
            Kind::Ingest => 30,
        }
    }
}

/// Monte-Carlo samples per `sensitivity` request.
pub const SENSITIVITY_SAMPLES: u64 = 400;

/// The example netlists uploaded by `ingest` requests.
const ADDER4_EDIF: &str = include_str!("../../examples/adder4.edif");
const MAC_UNIT_V: &str = include_str!("../../examples/mac_unit.v");

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Its kind.
    pub kind: Kind,
    /// Registered case name.
    pub case: &'static str,
    /// Case parameters.
    pub params: Value,
}

impl Item {
    /// The NDJSON request line (quick mode) with correlation id `id`.
    pub fn line(&self, id: u64) -> String {
        Request::new(id, self.case, self.params.clone()).to_line()
    }

    /// The request's content key.
    pub fn key(&self) -> u64 {
        Request::new(0, self.case, self.params.clone()).key()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The response-cache keys the mix repeats; the first is the base flow
/// every distinct flow warm-starts from. Set-up sends each once.
pub fn repeat_keys() -> Vec<Item> {
    let item = |case, params| Item {
        kind: Kind::Repeat,
        case,
        params,
    };
    vec![
        item("pd_flow", Value::Null),
        item("tier_sweep", Value::Null),
        item("capacity_sweep", Value::Null),
        item(
            "sensitivity",
            obj(vec![
                ("samples", Value::U64(SENSITIVITY_SAMPLES)),
                ("seed", Value::U64(0)),
            ]),
        ),
    ]
}

/// SplitMix64: a small, fixed generator, so a seed means the same
/// stream on every platform and release.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Upload `i` of a stream: `examples/adder4.edif` for even `i`, with
/// its top cell renamed after `tag` and `i`; `examples/mac_unit.v` for
/// odd `i`, renamed after `i` alone. The service refuses every Verilog
/// upload (see the README), so those inputs do not depend on the seed.
pub fn upload(i: usize, tag: u64) -> (String, &'static str) {
    if i.is_multiple_of(2) {
        (
            ADDER4_EDIF.replace("adder4", &format!("adder4_{tag:x}_{i}")),
            "edif",
        )
    } else {
        (
            MAC_UNIT_V.replace("mac_unit", &format!("mac_unit_{i}")),
            "verilog",
        )
    }
}

/// How many requests of each kind a stream of `n` carries: the fixed
/// shares, rounded down, with the remainder on repeats.
pub fn composition(n: usize) -> Vec<(Kind, usize)> {
    let mut counts: Vec<(Kind, usize)> = Kind::ALL
        .iter()
        .map(|&k| (k, n * k.permille() / 1000))
        .collect();
    let rest = n - counts.iter().map(|c| c.1).sum::<usize>();
    counts[0].1 += rest;
    counts
}

/// The stream of `n` requests for `seed`: [`composition`] in a seeded
/// order, every non-repeat request a key of its own.
pub fn stream(seed: u64, n: usize) -> Vec<Item> {
    let mut rng = SplitMix::new(seed);
    let repeats = repeat_keys();
    // Distinct parameters: disjoint seeds and activities, offset per
    // stream so streams of different seeds share no computed keys.
    let seed_base = 1 + (rng.next_u64() >> 24);
    let activity_base = rng.below(40_000);
    let mut items = Vec::with_capacity(n);
    for (kind, count) in composition(n) {
        for j in 0..count {
            let j64 = j as u64;
            let item = match kind {
                Kind::Repeat => repeats[rng.below(repeats.len() as u64) as usize].clone(),
                Kind::Sensitivity => Item {
                    kind,
                    case: "sensitivity",
                    params: obj(vec![
                        ("samples", Value::U64(SENSITIVITY_SAMPLES)),
                        ("seed", Value::U64(seed_base + j64)),
                    ]),
                },
                Kind::Flow => Item {
                    kind,
                    case: "pd_flow",
                    params: obj(vec![(
                        "activity_pct",
                        // 1 % to 51 % activity in 0.001 % steps.
                        Value::F64(1.0 + (activity_base + j64) as f64 / 1000.0),
                    )]),
                },
                Kind::Ingest => {
                    let (source, format) = upload(j, seed_base);
                    Item {
                        kind,
                        case: "ingest",
                        params: obj(vec![
                            ("source", Value::Str(source)),
                            ("format", Value::Str(format.to_owned())),
                        ]),
                    }
                }
            };
            items.push(item);
        }
    }
    // Fisher–Yates with the same generator.
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn counts(items: &[Item]) -> Vec<usize> {
        Kind::ALL
            .iter()
            .map(|&k| items.iter().filter(|i| i.kind == k).count())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        assert_eq!(stream(7, 500), stream(7, 500));
        assert_ne!(stream(7, 500), stream(8, 500));
    }

    #[test]
    fn every_seed_gives_the_same_composition() {
        let want = counts(&stream(1, 2000));
        for seed in 2..40 {
            assert_eq!(counts(&stream(seed, 2000)), want, "seed {seed}");
        }
        let total: usize = composition(2000).iter().map(|c| c.1).sum();
        assert_eq!(total, 2000);
        assert_eq!(
            want,
            composition(2000).iter().map(|c| c.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn non_repeat_requests_are_distinct_keys() {
        let items = stream(3, 2000);
        let fresh: Vec<u64> = items
            .iter()
            .filter(|i| i.kind != Kind::Repeat)
            .map(Item::key)
            .collect();
        let distinct: HashSet<u64> = fresh.iter().copied().collect();
        assert_eq!(distinct.len(), fresh.len());
        let repeat: HashSet<u64> = repeat_keys().iter().map(Item::key).collect();
        assert!(distinct.is_disjoint(&repeat));
        let used: HashSet<u64> = items
            .iter()
            .filter(|i| i.kind == Kind::Repeat)
            .map(Item::key)
            .collect();
        assert!(used.is_subset(&repeat));
    }

    #[test]
    fn uploads_rename_the_top_cell() {
        let (edif, f0) = upload(0, 0xab);
        let (verilog, f1) = upload(1, 0xab);
        assert_eq!((f0, f1), ("edif", "verilog"));
        assert!(edif.contains("(edif adder4_ab_0") && edif.contains("(cell adder4_ab_0"));
        assert!(verilog.contains("module mac_unit_1 ("));
        // Verilog uploads do not depend on the seed.
        assert_eq!(upload(1, 1), upload(1, 2));
    }
}
