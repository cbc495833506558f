//! The five workloads and their seeded inputs.
//!
//! Everything here is plain data: a [`Plan`] says *when* to inject *what*,
//! in femtoseconds and SI-prefixed numbers, and is a pure function of
//! `(workload, seed, shrink)`. The adapter turns a plan into a
//! `Campaign`; the program under test never sees the seed.
//!
//! Instants are drawn by stratified sampling — one draw per equal-width
//! stratum of the injection window — so that the *amount of work* in a
//! pass barely depends on the seed (the driver compares runs across
//! seeds) while the instants themselves do.

/// One of the benchmark's fixed-work campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TinyCpu SEU grid, scalar from scratch.
    CpuSeuScalar,
    /// TinyCpu SEU grid, word-parallel kernel.
    CpuSeuWord,
    /// SET pulses on `rst`, word-parallel kernel.
    CpuSetWord,
    /// PLL strikes + SEUs, checkpoint-forked mixed-signal kernel.
    PllMixedFork,
    /// The scalar SEU list through coordinator + one loopback worker.
    CpuSeuServe,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::CpuSeuScalar,
        Workload::CpuSeuWord,
        Workload::CpuSetWord,
        Workload::PllMixedFork,
        Workload::CpuSeuServe,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuSeuScalar => "cpu-seu-scalar",
            Workload::CpuSeuWord => "cpu-seu-word",
            Workload::CpuSetWord => "cpu-set-word",
            Workload::PllMixedFork => "pll-mixed-fork",
            Workload::CpuSeuServe => "cpu-seu-serve",
        }
    }

    /// One line on why the workload exists (recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CpuSeuScalar => {
                "143 state bits x 8 seeded cycles (1144 cases), scalar from scratch: the \
                 oracle kernel and every fallback; word, analog and serve layers idle"
            }
            Workload::CpuSeuWord => {
                "143 bits x 56 seeded cycles (8008 cases), word kernel: lanes diverge and \
                 live to the horizon, so plane eval and the lane-masked wheel dominate"
            }
            Workload::CpuSetWord => {
                "2520 seeded SET instants x 4 widths on rst (10080 cases), word kernel: most \
                 lanes seal early, so seal/splice, saboteur farm and engine bookkeeping dominate"
            }
            Workload::PllMixedFork => {
                "fast PLL + payload, 40 seeded instants x (4 strikes + 4 SEUs) (320 cases), \
                 checkpoint fork: analog solver, mixed sync, snapshots; cpu kernels idle"
            }
            Workload::CpuSeuServe => {
                "the cpu-seu-scalar list in 8 shards through one coordinator and one loopback \
                 worker: same engine thread, so the rate ratio is distribution cost alone"
            }
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether an independent scalar from-scratch run is a meaningful
    /// second opinion (it is the path under test on `cpu-seu-scalar`).
    pub fn has_scalar_oracle(self) -> bool {
        self != Workload::CpuSeuScalar
    }
}

/// Femtoseconds per nanosecond / microsecond.
const NS: i64 = 1_000_000;
const US: i64 = 1_000 * NS;

/// Simulation horizon of both CPU benches.
pub const CPU_T_END_FS: i64 = 20 * US;
/// Simulation horizon of the PLL bench.
pub const PLL_T_END_FS: i64 = 30 * US;
/// SET pulse widths (1-4 ns against the 10 ns clock), per instant.
pub const SET_WIDTHS_FS: [i64; 4] = [NS, 2 * NS, 3 * NS, 4 * NS];
/// Strikes and SEUs per PLL injection instant.
pub const PLL_PER_INSTANT: usize = 4;
/// Shards a `cpu-seu-serve` submission is split into.
pub const SERVE_SHARDS: usize = 8;

/// A trapezoidal current strike in the paper's quoting convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Strike {
    /// Amplitude, mA (signed).
    pub pa_ma: f64,
    /// Rise time, ps.
    pub rt_ps: i64,
    /// Fall time, ps.
    pub ft_ps: i64,
    /// Width, ps (>= rise).
    pub pw_ps: i64,
}

/// The seeded inputs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Flip every `bit_stride`-th state bit of the TinyCpu at each instant.
    CpuSeu {
        /// Injection instants, ascending.
        instants_fs: Vec<i64>,
        /// 1 = every state bit.
        bit_stride: usize,
    },
    /// Arm the `rst` saboteur with each of [`SET_WIDTHS_FS`] at each instant.
    CpuSet {
        /// Injection instants, ascending.
        instants_fs: Vec<i64>,
    },
    /// At each instant: [`PLL_PER_INSTANT`] strikes on the loop-filter
    /// input and as many SEUs in the PLL's digital blocks.
    Pll {
        /// Injection instants, ascending.
        instants_fs: Vec<i64>,
        /// `strikes[i]` are armed at `instants_fs[i]`.
        strikes: Vec<[Strike; PLL_PER_INSTANT]>,
        /// Raw draws, reduced modulo the mutant-target count.
        flips: Vec<[u64; PLL_PER_INSTANT]>,
    },
}

/// SplitMix64: the whole of the harness's randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// One draw per equal-width stratum of `[from, to)`, on a `grain` grid.
fn stratified(rng: &mut SplitMix64, from: i64, to: i64, count: usize, grain: i64) -> Vec<i64> {
    let span = to - from;
    (0..count as i64)
        .map(|s| {
            let lo = from + span * s / count as i64;
            let hi = from + span * (s + 1) / count as i64;
            let slots = ((hi - lo) / grain).max(1);
            lo + rng.below(slots as u64) as i64 * grain
        })
        .collect()
}

/// SEU instants: one clock cycle (10 ns, edges at 0 and 5 ns) per stratum
/// of 2-12 us, struck at a whole nanosecond that is not a clock edge.
fn seu_instants(rng: &mut SplitMix64, cycles: usize) -> Vec<i64> {
    const OFF_EDGE_NS: [i64; 8] = [1, 2, 3, 4, 6, 7, 8, 9];
    stratified(rng, 200, 1200, cycles, 1)
        .into_iter()
        .map(|cycle| (cycle * 10 + OFF_EDGE_NS[rng.below(8) as usize]) * NS)
        .collect()
}

/// Builds the seeded plan for `workload`. `shrink` gives the tiny lists
/// the self-test runs in a debug build.
pub fn plan(workload: Workload, seed: u64, shrink: bool) -> Plan {
    // Decorrelate the streams of neighbouring seeds and of workloads that
    // are not meant to share a list. `cpu-seu-serve` deliberately shares
    // the scalar workload's list: their rate ratio is the serve cost.
    let stream = match workload {
        Workload::CpuSeuScalar | Workload::CpuSeuServe => 1,
        Workload::CpuSeuWord => 2,
        Workload::CpuSetWord => 3,
        Workload::PllMixedFork => 4,
    };
    let mut rng = SplitMix64::new(seed ^ (stream << 56));
    rng.next_u64();
    match workload {
        Workload::CpuSeuScalar | Workload::CpuSeuServe => Plan::CpuSeu {
            instants_fs: seu_instants(&mut rng, if shrink { 2 } else { 8 }),
            bit_stride: if shrink { 6 } else { 1 },
        },
        Workload::CpuSeuWord => Plan::CpuSeu {
            instants_fs: seu_instants(&mut rng, if shrink { 3 } else { 56 }),
            bit_stride: if shrink { 2 } else { 1 },
        },
        Workload::CpuSetWord => Plan::CpuSet {
            // Late, narrow pulses (12.5-19 us of 20 us) at picosecond
            // resolution: the phase against the clock decides masking.
            instants_fs: stratified(
                &mut rng,
                12_500 * NS,
                19_000 * NS,
                if shrink { 40 } else { 2520 },
                NS / 1000,
            ),
        },
        Workload::PllMixedFork => {
            let count = if shrink { 2 } else { 40 };
            let instants_fs = stratified(&mut rng, 12 * US, 20 * US, count, NS);
            let strikes = (0..count)
                .map(|_| {
                    [(); PLL_PER_INSTANT].map(|()| {
                        let rt_ps = rng.range_i64(40, 180);
                        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                        Strike {
                            pa_ma: sign * rng.range_i64(10, 200) as f64 / 10.0,
                            rt_ps,
                            ft_ps: rng.range_i64(40, 180),
                            pw_ps: rt_ps + rng.range_i64(80, 1000),
                        }
                    })
                })
                .collect();
            let flips = (0..count)
                .map(|_| [(); PLL_PER_INSTANT].map(|()| rng.next_u64()))
                .collect();
            Plan::Pll {
                instants_fs,
                strikes,
                flips,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 7, false), plan(w, 7, false), "{}", w.name());
            assert_ne!(plan(w, 7, false), plan(w, 8, false), "{}", w.name());
        }
    }

    #[test]
    fn serve_shares_the_scalar_list() {
        assert_eq!(
            plan(Workload::CpuSeuScalar, 3, false),
            plan(Workload::CpuSeuServe, 3, false)
        );
    }

    #[test]
    fn strata_stay_inside_their_window_and_ascend() {
        let mut rng = SplitMix64::new(1);
        let ts = stratified(&mut rng, 100, 1100, 10, 7);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        assert!(ts.iter().all(|&t| (100..1100).contains(&t)));
    }
}
