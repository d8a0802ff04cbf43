//! Seeded query streams and arrival schedules. The `--seed` argument
//! reaches the program only through these functions: it picks the query
//! streams and the open-loop schedule, never the data, the warm-up or
//! the deployment.

use braid_sim::{Dataset, SimRng};

/// Data seed of both genealogy databases (fixed: the seed argument
/// varies the queries, not the data they run over).
pub const DATA_SEED: u64 = 11;

/// Seed of the fixed warm-up lists, so set-up does the same work for
/// every `--seed`.
pub const WARMUP_SEED: u64 = 0x5741_524d;

/// hot-reuse's database: genealogy, 3 generations x branching 2.
pub const HOT_DATASET: Dataset = Dataset::Genealogy {
    generations: 3,
    branching: 2,
    seed: DATA_SEED,
};

/// cold-fetch's and server-mixed's database: genealogy, 5 generations x
/// branching 3.
pub const COLD_DATASET: Dataset = Dataset::Genealogy {
    generations: 5,
    branching: 3,
    seed: DATA_SEED,
};

/// Every genealogy view with its arity.
const VIEWS: [(&str, usize); 7] = [
    ("grandparent", 2),
    ("sibling", 2),
    ("ancestor", 2),
    ("cousin", 2),
    ("uncle", 2),
    ("elder_parent", 2),
    ("adult", 1),
];

/// cold-fetch probes every view but `cousin`, whose bound probes cost
/// ~100 ms of IE CPU each on the 364-person tree and would swamp the
/// remote share of the time.
fn cold_views() -> impl Iterator<Item = (&'static str, usize)> {
    VIEWS.into_iter().filter(|&(name, _)| name != "cousin")
}

/// hot-reuse's argument shapes per view and block: (first bound, second
/// bound, count). The load generator's mix binds the first argument 70%
/// and the second 25% of the time, independently; 40 queries per view
/// realise it exactly.
const HOT_SHAPES: [(bool, bool, usize); 4] = [
    (true, true, 7),
    (true, false, 21),
    (false, true, 3),
    (false, false, 9),
];

/// Queries per hot-reuse block: 40 per view.
pub const HOT_BLOCK: usize = 280;

/// Queries per cold-fetch block: every cold view for each of the 364
/// persons.
pub const COLD_BLOCK: usize = 6 * 364;

/// Persons in a genealogy dataset (`p0` .. `p{n-1}`).
pub fn person_count(dataset: &Dataset) -> usize {
    match *dataset {
        Dataset::Genealogy {
            generations,
            branching,
            ..
        } => braid_workload::genealogy::person_count(generations, branching),
        Dataset::Suppliers { .. } => panic!("the benchmark runs genealogy datasets only"),
    }
}

/// A sub-seed for one stream, so streams drawn from one `--seed` do not
/// replay each other.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SimRng::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

fn shuffle<T>(xs: &mut [T], rng: &mut SimRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn person(rng: &mut SimRng, persons: usize) -> String {
    format!("p{}", rng.below(persons as u64))
}

/// The `braid_load::query_pool` view mix over the small tree (every
/// view equally often, recursive `ancestor` and `cousin` included),
/// drawn in blocks of 280 that hold its shapes in exact proportion. The
/// free `cousin(X, Y)` scan costs ~30x the mean query, so a freely drawn
/// stream would let its count, and with it throughput and p99, vary by
/// seed; here seeds differ only in order and constants.
pub fn hot_blocks(seed: u64, n: usize) -> Vec<String> {
    let persons = person_count(&HOT_DATASET);
    let mut rng = SimRng::new(seed);
    let mut block: Vec<(&str, usize, bool, bool)> = VIEWS
        .into_iter()
        .flat_map(|(name, arity)| {
            HOT_SHAPES
                .into_iter()
                .flat_map(move |(a, b, k)| std::iter::repeat_n((name, arity, a, b), k))
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        shuffle(&mut block, &mut rng);
        for &(name, arity, first, second) in block.iter().take(n - out.len()) {
            let x = if first {
                person(&mut rng, persons)
            } else {
                "X".into()
            };
            out.push(if arity == 1 {
                format!("?- {name}({x}).")
            } else {
                let y = if second {
                    person(&mut rng, persons)
                } else {
                    "Y".into()
                };
                format!("?- {name}({x}, {y}).")
            });
        }
    }
    out
}

/// hot-reuse's stream for a `--seed`.
pub fn hot_stream(seed: u64, n: usize) -> Vec<String> {
    hot_blocks(derive(seed, 1), n)
}

/// hot-reuse's warm-up: every view with all arguments free, then a
/// fixed 200-query stretch of the mix.
pub fn hot_warmup() -> Vec<String> {
    let mut q: Vec<String> = VIEWS
        .into_iter()
        .map(|(name, arity)| {
            if arity == 1 {
                format!("?- {name}(X).")
            } else {
                format!("?- {name}(X, Y).")
            }
        })
        .collect();
    q.extend(hot_blocks(WARMUP_SEED, 200));
    q
}

/// Bound probes over the large tree, drawn in blocks: each block is a
/// seeded permutation of every (view, person) pair, so every stream
/// has the same mix of cheap leaf probes and costly near-root
/// `ancestor` probes, and seeds differ only in order. Every fourth
/// binary probe also binds its second argument to a random person.
pub fn cold_blocks(seed: u64, n: usize) -> Vec<String> {
    let persons = person_count(&COLD_DATASET);
    let mut rng = SimRng::new(seed);
    let mut pairs: Vec<(&str, usize, usize)> = cold_views()
        .flat_map(|(name, arity)| (0..persons).map(move |p| (name, arity, p)))
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        shuffle(&mut pairs, &mut rng);
        for (i, &(name, arity, p)) in pairs.iter().enumerate().take(n - out.len()) {
            out.push(if arity == 1 {
                format!("?- {name}(p{p}).")
            } else if i % 4 == 0 {
                format!("?- {name}(p{p}, {}).", person(&mut rng, persons))
            } else {
                format!("?- {name}(p{p}, Y).")
            });
        }
    }
    out
}

/// cold-fetch's stream for a `--seed`.
pub fn cold_stream(seed: u64, n: usize) -> Vec<String> {
    cold_blocks(derive(seed, 2), n)
}

/// cold-fetch's and server-mixed's warm-up: a fixed stretch of bound
/// probes, enough to fill the capped cache.
pub fn cold_warmup(n: usize) -> Vec<String> {
    cold_blocks(WARMUP_SEED, n)
}

/// server-open's per-connection streams: one cold stream dealt out
/// round-robin, so the connections together keep the block mix.
pub fn dealt_streams(seed: u64, conns: usize, per_conn: usize) -> Vec<Vec<String>> {
    let all = cold_blocks(derive(seed, 3), conns * per_conn);
    (0..conns)
        .map(|c| all.iter().skip(c).step_by(conns).cloned().collect())
        .collect()
}

/// One connection's open-loop schedule: `n` Poisson arrivals at
/// `rate_per_sec`, as microsecond offsets from the window start.
pub fn arrivals_us(seed: u64, conn: usize, rate_per_sec: u32, n: usize) -> Vec<u64> {
    braid_load::arrival_offsets_us(derive(seed, 100 + conn as u64), rate_per_sec, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        assert_eq!(hot_stream(7, 500), hot_stream(7, 500));
        assert_ne!(hot_stream(7, 500), hot_stream(8, 500));
        assert_eq!(cold_stream(7, 500), cold_stream(7, 500));
        assert_ne!(cold_stream(7, 500), cold_stream(8, 500));
        assert_eq!(dealt_streams(7, 2, 300), dealt_streams(7, 2, 300));
        assert_ne!(dealt_streams(7, 2, 300), dealt_streams(8, 2, 300));
        assert_eq!(arrivals_us(7, 0, 150, 300), arrivals_us(7, 0, 150, 300));
        assert_ne!(arrivals_us(7, 0, 150, 300), arrivals_us(7, 1, 150, 300));
        assert_ne!(arrivals_us(7, 0, 150, 300), arrivals_us(8, 0, 150, 300));
    }

    #[test]
    fn warmups_ignore_the_seed() {
        assert_eq!(hot_warmup(), hot_warmup());
        assert_eq!(cold_warmup(50), cold_warmup(50));
        assert_eq!(hot_warmup().len(), 7 + 200);
    }

    fn shape(q: &str) -> (String, bool, bool) {
        let atom = braid::parse_query(q).expect("stream queries parse");
        let bound = |i: usize| atom.args.get(i).is_some_and(|a| a.as_var().is_none());
        (atom.pred.clone(), bound(0), bound(1))
    }

    #[test]
    fn a_hot_block_holds_the_view_mix_exactly() {
        for seed in [1, 2] {
            let mut counts: BTreeMap<(String, bool, bool), usize> = BTreeMap::new();
            for q in hot_blocks(seed, HOT_BLOCK) {
                *counts.entry(shape(&q)).or_default() += 1;
            }
            assert_eq!(counts[&("cousin".into(), false, false)], 9);
            assert_eq!(counts[&("cousin".into(), true, false)], 21);
            assert_eq!(counts[&("ancestor".into(), true, true)], 7);
            assert_eq!(counts[&("adult".into(), true, false)], 28);
            assert_eq!(counts[&("adult".into(), false, false)], 12);
            assert_eq!(counts.values().sum::<usize>(), 280);
        }
    }

    #[test]
    fn a_cold_block_probes_every_view_and_person_once() {
        let persons = person_count(&COLD_DATASET);
        assert_eq!(persons, 364);
        assert_eq!(COLD_BLOCK, cold_views().count() * persons);
        let block = cold_blocks(3, COLD_BLOCK);
        let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
        for q in &block {
            let atom = braid::parse_query(q).expect("stream queries parse");
            assert!(atom.args[0].as_var().is_none(), "first argument bound: {q}");
            assert_ne!(atom.pred, "cousin");
            *seen
                .entry((atom.pred.clone(), atom.args[0].to_string()))
                .or_default() += 1;
        }
        assert_eq!(seen.len(), block.len());
        assert!(seen.values().all(|&c| c == 1));
    }

    #[test]
    fn dealt_streams_share_one_stream_round_robin() {
        let all = cold_blocks(derive(9, 3), 10);
        let split = dealt_streams(9, 2, 5);
        let evens: Vec<String> = all.iter().step_by(2).cloned().collect();
        assert_eq!(split[0], evens);
        assert_eq!(split[1][0], all[1]);
    }

    #[test]
    fn schedules_are_sorted_at_the_offered_rate() {
        let s = arrivals_us(1, 0, 150, 1500);
        assert_eq!(s.len(), 1500);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        // 1500 arrivals at 150/s span about 10 s (Poisson spread ~0.26 s).
        let span_s = *s.last().expect("arrivals") as f64 / 1e6;
        assert!((9.0..11.0).contains(&span_s), "{span_s} s");
    }
}
