//! Property-based tests for the waveform and logic primitives.

use amsfi_waves::{
    baseline, compare_analog, compare_digital_with_skew, measure, vcd, AnalogStream, AnalogWave,
    DigitalStream, DigitalWave, Logic, LogicVector, MismatchToggles, Time, ToggleStream, Tolerance,
    Trace,
};
use proptest::prelude::*;

/// One step of a recording script: advance time by `dt_ns`, then record on
/// signal `signal` — digital (a `Logic` by index) or analog.
#[derive(Debug, Clone)]
struct Record {
    analog: bool,
    signal: usize,
    dt_ns: i64,
    level: usize,
}

const SIGNALS: usize = 4;
const DIGITAL_NAMES: [&str; SIGNALS] = ["clk", "out[0]", "out[1]", "a.b"];
const ANALOG_NAMES: [&str; SIGNALS] = ["vctrl", "i(x)", "out[0]", "z"];

fn arb_script() -> impl Strategy<Value = Vec<Record>> {
    let record = (any::<bool>(), 0..SIGNALS, 0i64..4, 0usize..9).prop_map(
        |(analog, signal, dt_ns, level)| Record {
            analog,
            signal,
            dt_ns,
            level,
        },
    );
    prop::collection::vec(record, 0..40)
}

/// The script with absolute times.
fn timed(script: &[Record]) -> Vec<(Time, &Record)> {
    let mut now = Time::ZERO;
    script
        .iter()
        .map(|r| {
            now += Time::from_ns(r.dt_ns);
            (now, r)
        })
        .collect()
}

/// A recorder over one trace: by name, or through slots resolved up front
/// in the order `registration` gives (every name gets a slot, recorded to
/// or not).
struct Recorder {
    trace: Trace,
    slots: Option<(Vec<amsfi_waves::DigitalSlot>, Vec<amsfi_waves::AnalogSlot>)>,
}

impl Recorder {
    fn by_name() -> Self {
        Recorder {
            trace: Trace::new(),
            slots: None,
        }
    }

    fn by_slot(registration: &[usize]) -> Self {
        let mut trace = Trace::new();
        let mut digital = vec![None; SIGNALS];
        let mut analog = vec![None; SIGNALS];
        for &i in registration {
            analog[i] = Some(trace.analog_slot(ANALOG_NAMES[i]));
            digital[i] = Some(trace.digital_slot(DIGITAL_NAMES[i]));
        }
        for i in 0..SIGNALS {
            digital[i].get_or_insert_with(|| trace.digital_slot(DIGITAL_NAMES[i]));
            analog[i].get_or_insert_with(|| trace.analog_slot(ANALOG_NAMES[i]));
        }
        Recorder {
            trace,
            slots: Some((
                digital.into_iter().flatten().collect(),
                analog.into_iter().flatten().collect(),
            )),
        }
    }

    fn record(&mut self, t: Time, r: &Record) {
        let level = Logic::ALL[r.level];
        let volts = r.level as f64 * 0.25 - 1.0;
        match (&self.slots, r.analog) {
            (None, false) => self.trace.record_digital(DIGITAL_NAMES[r.signal], t, level),
            (None, true) => self.trace.record_analog(ANALOG_NAMES[r.signal], t, volts),
            (Some((d, _)), false) => self.trace.push_digital(d[r.signal], t, level),
            (Some((_, a)), true) => self.trace.push_analog(a[r.signal], t, volts),
        }
        .expect("script time is monotonic");
    }
}

/// Everything a reader can see of a trace.
#[derive(Debug, PartialEq)]
struct Seen {
    digital_names: Vec<String>,
    analog_names: Vec<String>,
    len: usize,
    is_empty: bool,
    approx_bytes: u64,
    end_time: Option<Time>,
    vcd: String,
    csv: String,
}

fn observe(trace: &Trace) -> Seen {
    Seen {
        digital_names: trace.digital_names().map(str::to_owned).collect(),
        analog_names: trace.analog_names().map(str::to_owned).collect(),
        len: trace.len(),
        is_empty: trace.is_empty(),
        approx_bytes: trace.approx_bytes(),
        end_time: trace.end_time(),
        vcd: vcd::to_vcd(trace, "props"),
        csv: trace.analog_csv(Time::ZERO, Time::from_ns(20), Time::from_ns(5)),
    }
}

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop::sample::select(Logic::ALL.to_vec())
}

fn arb_time() -> impl Strategy<Value = Time> {
    (0i64..=1_000_000_000_000).prop_map(Time::from_fs)
}

proptest! {
    #[test]
    fn resolution_commutative(a in arb_logic(), b in arb_logic()) {
        prop_assert_eq!(a.resolve(b), b.resolve(a));
    }

    #[test]
    fn resolution_idempotent(a in arb_logic()) {
        // IEEE 1164 resolves '-' with '-' to 'X'; all other values are
        // idempotent under resolution.
        if a == Logic::DontCare {
            prop_assert_eq!(a.resolve(a), Logic::Unknown);
        } else {
            prop_assert_eq!(a.resolve(a), a);
        }
    }

    #[test]
    fn highz_is_resolution_identity_for_drivers(a in arb_logic()) {
        // '-' is the only value Z does not pass through unchanged (it becomes X).
        if a != Logic::DontCare {
            prop_assert_eq!(Logic::HighZ.resolve(a), a);
        }
    }

    #[test]
    fn double_flip_restores_binary_values(a in arb_logic()) {
        if a.to_bool().is_some() {
            prop_assert_eq!(a.flipped().flipped().to_x01(), a.to_x01());
        } else {
            prop_assert_eq!(a.flipped(), a);
        }
    }

    #[test]
    fn de_morgan_on_x01(a in arb_logic(), b in arb_logic()) {
        prop_assert_eq!(!(a & b), (!a) | (!b));
        prop_assert_eq!(!(a | b), (!a) & (!b));
    }

    #[test]
    fn vector_u64_round_trip(value in any::<u64>(), width in 1usize..=64) {
        let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
        let v = LogicVector::from_u64(masked, width);
        prop_assert_eq!(v.to_u64(), Some(masked));
        prop_assert_eq!(v.width(), width);
    }

    #[test]
    fn vector_display_parse_round_trip(value in any::<u64>(), width in 1usize..=32) {
        let masked = value & ((1u64 << width) - 1);
        let v = LogicVector::from_u64(masked, width);
        let parsed: LogicVector = v.to_string().parse().unwrap();
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn vector_flip_changes_hamming_by_one(value in any::<u64>(), width in 1usize..=32, bit in 0usize..32) {
        prop_assume!(bit < width);
        let masked = value & ((1u64 << width) - 1);
        let v = LogicVector::from_u64(masked, width);
        let mut w = v.clone();
        w.flip_bit(bit);
        prop_assert_eq!(v.hamming_distance(&w), 1);
    }

    #[test]
    fn digital_value_at_is_last_transition(
        times in prop::collection::vec(arb_time(), 1..20),
        values in prop::collection::vec(arb_logic(), 20),
    ) {
        let mut sorted = times.clone();
        sorted.sort();
        sorted.dedup();
        let mut w = DigitalWave::new();
        let mut expected: Vec<(Time, Logic)> = Vec::new();
        for (i, &t) in sorted.iter().enumerate() {
            let v = values[i % values.len()];
            w.push(t, v).unwrap();
            expected.push((t, v));
        }
        // At every recorded time, the waveform returns that value.
        for &(t, v) in &expected {
            prop_assert_eq!(w.value_at(t).to_x01(), v.to_x01());
        }
        // Before the first transition the value is 'U'.
        if expected[0].0 > Time::ZERO {
            prop_assert_eq!(w.value_at(expected[0].0 - Time::RESOLUTION), Logic::Uninitialized);
        }
    }

    #[test]
    fn analog_interpolation_is_bounded_by_neighbours(
        v0 in -10.0f64..10.0, v1 in -10.0f64..10.0, frac in 0.0f64..=1.0
    ) {
        let t1 = Time::from_ns(100);
        let w = AnalogWave::from_samples([(Time::ZERO, v0), (t1, v1)]);
        let t = Time::from_fs((t1.as_fs() as f64 * frac) as i64);
        let v = w.value_at(t);
        let (lo, hi) = (v0.min(v1), v0.max(v1));
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "v = {v}, bounds [{lo}, {hi}]");
    }

    #[test]
    fn crossings_alternate_direction(samples in prop::collection::vec(-5.0f64..5.0, 2..40)) {
        let w: AnalogWave = samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (Time::from_ns(i as i64 * 10), v))
            .collect();
        let crossings = measure::crossings(&w, 0.0);
        for pair in crossings.windows(2) {
            prop_assert_ne!(pair[0].direction, pair[1].direction);
        }
    }

    #[test]
    fn deviation_of_wave_with_itself_is_zero(samples in prop::collection::vec(-5.0f64..5.0, 2..20)) {
        let w: AnalogWave = samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (Time::from_ns(i as i64 * 10), v))
            .collect();
        let end = w.end_time().unwrap();
        let d = measure::deviation(&w, &w, Time::ZERO, end, 1e-12);
        prop_assert_eq!(d.peak, 0.0);
        prop_assert_eq!(d.onset, None);
    }

    #[test]
    fn streaming_digital_compare_equals_baseline(
        g_times in prop::collection::vec(0i64..2_000, 1..30),
        f_times in prop::collection::vec(0i64..2_000, 1..30),
        g_vals in prop::collection::vec(arb_logic(), 30),
        f_vals in prop::collection::vec(arb_logic(), 30),
        from_ns in 0i64..500,
        span_ns in 0i64..2_000,
        gap_ns in 0i64..50,
        skew_ns in 0i64..10,
        cuts in prop::collection::vec(0i64..2_500, 0..6),
    ) {
        let build = |times: &[i64], vals: &[Logic]| {
            let mut sorted = times.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let mut w = DigitalWave::new();
            for (i, &t) in sorted.iter().enumerate() {
                w.push(Time::from_ns(t), vals[i % vals.len()]).unwrap();
            }
            w
        };
        let g = build(&g_times, &g_vals);
        let f = build(&f_times, &f_vals);
        let (from, to) = (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns));
        let gap = Time::from_ns(gap_ns);
        let skew = Time::from_ns(skew_ns);
        let base = baseline::compare_digital_with_skew(&g, &f, from, to, gap, skew);
        // One-shot streaming path (the production compare function).
        prop_assert_eq!(&compare_digital_with_skew(&g, &f, from, to, gap, skew), &base);
        // Chunked streaming with arbitrary (sorted) finality bounds.
        let mut s = DigitalStream::new(from, to, gap, skew);
        let mut bounds = cuts.clone();
        bounds.sort_unstable();
        for b in bounds {
            s.advance(&g, &f, Time::from_ns(b));
        }
        prop_assert_eq!(&s.finish(&g, &f), &base);
    }

    #[test]
    fn streaming_analog_compare_equals_baseline(
        g_samples in prop::collection::vec((0i64..2_000, -5.0f64..5.0), 1..30),
        f_samples in prop::collection::vec((0i64..2_000, -5.0f64..5.0), 1..30),
        from_ns in 0i64..500,
        span_ns in 0i64..2_000,
        gap_ns in 0i64..50,
        abs_tol in 0.0f64..2.0,
        cuts in prop::collection::vec(0i64..2_500, 0..6),
    ) {
        let build = |samples: &[(i64, f64)]| {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable_by_key(|&(t, _)| t);
            sorted.dedup_by_key(|&mut (t, _)| t);
            AnalogWave::from_samples(sorted.iter().map(|&(t, v)| (Time::from_ns(t), v)))
        };
        let g = build(&g_samples);
        let f = build(&f_samples);
        let (from, to) = (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns));
        let gap = Time::from_ns(gap_ns);
        let tol = Tolerance::absolute(abs_tol);
        let base = baseline::compare_analog(&g, &f, from, to, tol, gap);
        prop_assert_eq!(&compare_analog(&g, &f, from, to, tol, gap), &base);
        let mut s = AnalogStream::new(from, to, tol, gap);
        let mut bounds = cuts.clone();
        bounds.sort_unstable();
        for b in bounds {
            s.advance(&g, &f, Time::from_ns(b));
        }
        prop_assert_eq!(&s.finish(&g, &f), &base);
    }

    #[test]
    fn slot_recorded_trace_equals_name_recorded_trace(
        script in arb_script(),
        registration in prop::collection::vec(0..SIGNALS, 0..6),
        cut in 0usize..40,
    ) {
        let steps = timed(&script);
        let mut named = Recorder::by_name();
        let mut slotted = Recorder::by_slot(&registration);
        let cut = cut.min(steps.len());
        for &(t, r) in &steps[..cut] {
            named.record(t, r);
            slotted.record(t, r);
        }
        // A clone keeps the slots valid: the original and the clone go on
        // recording through the same handles.
        let mut named_lane = Recorder { trace: named.trace.clone(), slots: None };
        let mut slotted_lane = Recorder {
            trace: slotted.trace.clone(),
            slots: slotted.slots.clone(),
        };
        for &(t, r) in &steps[cut..] {
            named.record(t, r);
            slotted.record(t, r);
        }
        prop_assert_eq!(&slotted.trace, &named.trace);
        prop_assert_eq!(&named.trace, &slotted.trace);
        prop_assert_eq!(observe(&slotted.trace), observe(&named.trace));
        // Registered but silent: not there for any reader.
        for i in 0..SIGNALS {
            let recorded = |analog: bool| steps.iter().any(|(_, r)| r.analog == analog && r.signal == i);
            prop_assert_eq!(slotted.trace.digital(DIGITAL_NAMES[i]).is_some(), recorded(false));
            prop_assert_eq!(slotted.trace.analog(ANALOG_NAMES[i]).is_some(), recorded(true));
        }
        prop_assert_eq!(slotted.trace.is_empty(), steps.is_empty());

        // The clones hold the prefix; recording the suffix through the
        // cloned slots completes them to the full run.
        prop_assert_eq!(&slotted_lane.trace, &named_lane.trace);
        for &(t, r) in &steps[cut..] {
            named_lane.record(t, r);
            slotted_lane.record(t, r);
        }
        prop_assert_eq!(&slotted_lane.trace, &named.trace);
        prop_assert_eq!(&named_lane.trace, &named.trace);
    }

    #[test]
    fn absorb_is_the_same_by_slot_and_by_name(
        ours in arb_script(),
        theirs in arb_script(),
        registration in prop::collection::vec(0..SIGNALS, 0..6),
        after in arb_script(),
    ) {
        let mut named = Recorder::by_name();
        let mut slotted = Recorder::by_slot(&registration);
        let mut last = Time::ZERO;
        for (t, r) in timed(&ours) {
            named.record(t, r);
            slotted.record(t, r);
            last = t;
        }
        let mut named_other = Recorder::by_name();
        let mut slotted_other = Recorder::by_slot(&[3, 1]);
        for (t, r) in timed(&theirs) {
            named_other.record(t, r);
            slotted_other.record(t, r);
            last = last.max(t);
        }
        named.trace.absorb(named_other.trace);
        slotted.trace.absorb(slotted_other.trace);
        prop_assert_eq!(&slotted.trace, &named.trace);
        prop_assert_eq!(observe(&slotted.trace), observe(&named.trace));
        // The absorbing trace's slots still name the same signals.
        for (t, r) in timed(&after) {
            named.record(last + t, r);
            slotted.record(last + t, r);
        }
        prop_assert_eq!(&slotted.trace, &named.trace);
    }

    #[test]
    fn time_display_round_trips_through_seconds(fs in 0i64..=1_000_000_000_000_000) {
        let t = Time::from_fs(fs);
        let back = Time::from_secs_f64(t.as_secs_f64());
        // f64 has 52 mantissa bits; round trip is exact to ~128 fs at 0.5 s.
        prop_assert!((back - t).abs() <= Time::from_fs(256));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The comparison fed a slot's mismatch toggles is the one
    /// `DigitalStream` makes of the two waves with zero skew: over waves
    /// holding every value (weak levels read as strong, metalogical ones as
    /// `'X'`), pushed with same-instant overwrites, through windows before,
    /// inside, across and after the toggles, inverted ones included, at
    /// zero and positive merge gaps. A faulty run that never recorded is
    /// all `'U'` to both.
    #[test]
    fn toggle_fed_stream_equals_the_digital_stream(
        g_pushes in prop::collection::vec((0i64..400, arb_logic()), 0..30),
        f_pushes in prop::collection::vec((0i64..400, arb_logic()), 0..30),
        from_ns in -50i64..450,
        span_ns in -100i64..450,
        gap_ns in prop::sample::select(vec![0i64, 0, 1, 7, 40]),
    ) {
        // Out-of-order draws are sorted; equal instants stay, and the later
        // push overwrites the earlier.
        let record = |pushes: &[(i64, Logic)]| {
            let mut pushes = pushes.to_vec();
            pushes.sort_by_key(|&(t, _)| t);
            let mut trace = Trace::new();
            let slot = trace.digital_slot("s");
            for (t, v) in pushes {
                trace.push_digital(slot, Time::from_ns(t), v).unwrap();
            }
            (trace, slot)
        };
        let ((golden, slot), (faulty, _)) = (record(&g_pushes), record(&f_pushes));
        let wave = |trace: &Trace| trace.digital("s").cloned().unwrap_or_default();
        let (g, f) = (wave(&golden), wave(&faulty));
        let (from, to) = (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns));
        let gap = Time::from_ns(gap_ns);

        let mut digital = DigitalStream::new(from, to, gap, Time::ZERO);
        let cmp = digital.finish(&g, &f);
        let mut toggled = ToggleStream::new(from, to, gap);
        for t in MismatchToggles::between(&golden, &faulty).of_slot(slot) {
            toggled.toggle(t);
        }
        let (a, b) = (digital.state(), toggled.finish());
        prop_assert_eq!(a.closed(), b.closed());
        prop_assert_eq!(a.open_since(), b.open_since());
        prop_assert_eq!(a.processed_to(), b.processed_to());
        prop_assert_eq!(b.closed().map(|c| c.first), cmp.first_divergence());
        prop_assert_eq!(b.closed().map(|c| c.last), cmp.last_divergence());
        prop_assert_eq!(b.closed().map_or(Time::ZERO, |c| c.total), cmp.total_mismatch());
        prop_assert_eq!(&cmp, &baseline::compare_digital_with_skew(&g, &f, from, to, gap, Time::ZERO));
    }
}
