//! Property-based tests for the campaign engine.

use amsfi_core::{
    classify, plan, report, ClassifySpec, FaultClass, Golden, MismatchClassifier, OnlineClassifier,
};
use amsfi_waves::{
    DigitalSlot, DigitalWave, Logic, MismatchToggles, Time, Tolerance, Trace, TraceView,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn arb_trace(seed: Vec<(i64, bool)>) -> Trace {
    let mut t = Trace::new();
    let mut sorted = seed;
    sorted.sort();
    sorted.dedup_by_key(|(ns, _)| *ns);
    t.record_digital("out", Time::ZERO, Logic::Zero).unwrap();
    for (ns, v) in sorted {
        t.record_digital("out", Time::from_ns(ns.abs() + 1), Logic::from_bool(v))
            .unwrap();
    }
    t
}

/// A clock toggling every `period` from time zero up to `horizon`.
fn toggling(period: Time, horizon: Time) -> DigitalWave {
    let mut w = DigitalWave::new();
    let mut t = Time::ZERO;
    let mut v = Logic::Zero;
    while t <= horizon {
        w.push(t, v).unwrap();
        v = v.flipped();
        t += period;
    }
    w
}

/// `golden` with its value inverted over the episode `[e0, e1)` — a single
/// contiguous perturbation, the shape an injected SEU transient takes.
fn perturbed(golden: &DigitalWave, e0: Time, e1: Time) -> DigitalWave {
    let mut times: Vec<Time> = golden.transitions().iter().map(|&(t, _)| t).collect();
    times.push(e0);
    times.push(e1);
    times.sort();
    times.dedup();
    let mut f = DigitalWave::new();
    for t in times {
        let v = golden.value_at(t);
        let v = if t >= e0 && t < e1 { v.flipped() } else { v };
        f.push(t, v).unwrap();
    }
    f
}

/// A flat analog wave at `base` sampled every 25 ns up to `horizon`, with a
/// bump of `amp` over `[e0, e1)` whose ramps stay within 1 ns of the episode.
fn bumped(base: f64, amp: f64, e0: Time, e1: Time, horizon: Time) -> BTreeMap<Time, f64> {
    let mut samples = BTreeMap::new();
    let mut t = Time::ZERO;
    while t <= horizon {
        samples.insert(t, if t >= e0 && t < e1 { base + amp } else { base });
        t += Time::from_ns(25);
    }
    samples.insert((e0 - Time::from_ns(1)).max(Time::ZERO), base);
    samples.insert(e0, base + amp);
    samples.insert(e1, base);
    samples
}

proptest! {
    /// The tentpole invariant: whenever the online classifier seals a
    /// verdict, its class, onset and affected set equal the post-hoc
    /// classifier's and its `error_end` / `total_mismatch` are lower bounds
    /// of the post-hoc ones (the `sealed_at` contract) — over random
    /// injection episodes, windows, settle values and observation cadences,
    /// on a digital output whose faulty edges are displaced within a
    /// non-zero `digital_skew`, a digital and an analog internal (the bump
    /// lands on either side of `analog_tolerance`) and, in half the cases,
    /// an output name the golden trace never recorded. The settle window is
    /// drawn to exceed the injected episode, per the classifier's soundness
    /// contract: settle must be longer than any diverged episode (and any
    /// clean gap) of a pattern that is not yet final.
    #[test]
    fn online_seal_matches_post_hoc_class_onset_affected(
        period_ns in 20i64..200,
        e0_ns in 0i64..8_000,
        dur_ns in 1i64..3_000,
        w0_ns in 0i64..2_000,
        span_ns in 4_000i64..12_000,
        extra_settle_ns in 50i64..2_000,
        step_ns in 17i64..900,
        skew_ns in 0i64..6,
        displaced in any::<bool>(),
        amp in 0.0f64..0.2,
        ghost in any::<bool>(),
    ) {
        let settle_ns = dur_ns + extra_settle_ns;
        let horizon = Time::from_ns(16_000);
        let g_out = toggling(Time::from_ns(period_ns), horizon);
        let g_state = toggling(Time::from_ns(period_ns * 3), horizon);
        let e0 = Time::from_ns(e0_ns);
        let e1 = e0 + Time::from_ns(dur_ns);
        let f_out = perturbed(&g_out, e0, e1);
        // Every faulty edge after time zero arrives late by the full skew
        // tolerance: forgiven, but it exercises the ±skew observations.
        let late = if displaced { Time::from_ns(skew_ns) } else { Time::ZERO };

        let mut golden = Trace::new();
        let mut faulty = Trace::new();
        for &(t, v) in g_out.transitions() {
            golden.record_digital("out", t, v).unwrap();
        }
        for &(t, v) in g_state.transitions() {
            golden.record_digital("state", t, v).unwrap();
            faulty.record_digital("state", t, v).unwrap();
        }
        for &(t, v) in f_out.transitions() {
            let t = if t > Time::ZERO { t + late } else { t };
            faulty.record_digital("out", t, v).unwrap();
        }
        for (t, v) in bumped(1.0, 0.0, e0, e1, horizon) {
            golden.record_analog("vctrl", t, v).unwrap();
        }
        for (t, v) in bumped(1.0, amp, e0, e1, horizon) {
            faulty.record_analog("vctrl", t, v).unwrap();
        }

        let mut outputs = vec!["out".to_owned()];
        if ghost {
            outputs.push("ghost".to_owned());
        }
        let spec = ClassifySpec::new(
            (Time::from_ns(w0_ns), Time::from_ns(w0_ns + span_ns)),
            outputs,
        )
        .with_internals(vec!["state".to_owned(), "vctrl".to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(skew_ns));
        let post_hoc = classify(&spec, &golden, &faulty);

        let golden = Golden::new(spec.with_settle(Time::from_ns(settle_ns)), Arc::new(golden));
        let mut cl = OnlineClassifier::new(golden, e0);
        let mut t = Time::ZERO;
        let sealed = loop {
            let parts = [&faulty];
            cl.observe(t, &TraceView::new(&parts));
            if let Some(sealed) = cl.sealed() {
                break sealed.clone();
            }
            prop_assert!(t <= horizon + Time::from_us(2), "never sealed");
            t += Time::from_ns(step_ns);
        };
        prop_assert_eq!(sealed.class, post_hoc.class);
        prop_assert_eq!(sealed.error_onset, post_hoc.error_onset);
        prop_assert_eq!(&sealed.affected, &post_hoc.affected);
        prop_assert!(sealed.sealed_at.is_some());
        prop_assert!(sealed.error_end <= post_hoc.error_end);
        prop_assert!(sealed.total_mismatch <= post_hoc.total_mismatch);
    }

    /// A run booked from its mismatch toggles gets the verdict its trace
    /// gets, over random digital traces holding every value, and spec names
    /// of every standing: recorded by both runs, by golden only (the run
    /// left it silent), by the run only, registered by golden but never
    /// recorded (golden-silent), monitored by neither, and named twice.
    #[test]
    fn classify_mismatch_equals_classify(
        golden_script in prop::collection::vec((0usize..5, 0i64..2_000, 0usize..9), 0..40),
        faulty_script in prop::collection::vec((0usize..5, 0i64..2_000, 0usize..9), 0..40),
        outputs in prop::collection::vec(0usize..7, 1..5),
        internals in prop::collection::vec(0usize..7, 0..4),
        from_ns in 0i64..1_500,
        span_ns in 0i64..2_500,
        gap_ns in 0i64..150,
        recovery_ns in 0i64..500,
    ) {
        // Signals 0..5 may be recorded; "s5" is registered by golden and
        // never recorded, "s6" is monitored by neither run.
        let names: Vec<String> = (0..7).map(|i| format!("s{i}")).collect();
        let record = |script: &[(usize, i64, usize)], golden: bool| {
            let mut script = script.to_vec();
            script.sort_by_key(|&(_, t, _)| t);
            let mut trace = Trace::new();
            if golden {
                trace.digital_slot(&names[5]);
            }
            for (signal, t, level) in script {
                trace
                    .record_digital(&names[signal], Time::from_ns(t), Logic::ALL[level])
                    .unwrap();
            }
            trace
        };
        let golden = record(&golden_script, true);
        let faulty = record(&faulty_script, false);
        let pick = |picks: &[usize]| picks.iter().map(|&i| names[i].clone()).collect();
        let mut spec = ClassifySpec::new(
            (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns)),
            pick(&outputs),
        )
        .with_internals(pick(&internals));
        spec.merge_gap = Time::from_ns(gap_ns);
        spec.recovery = Time::from_ns(recovery_ns);

        let toggles = MismatchToggles::between(&golden, &faulty);
        let post_hoc = classify(&spec, &golden, &faulty);
        let golden = Golden::new(spec, Arc::new(golden));
        prop_assert_eq!(MismatchClassifier::new(&golden).classify(&toggles), post_hoc);
    }

    #[test]
    fn any_trace_matches_itself(seed in prop::collection::vec((0i64..10_000, any::<bool>()), 0..30)) {
        let trace = arb_trace(seed);
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(20)), vec!["out".to_owned()]);
        let outcome = classify(&spec, &trace, &trace);
        prop_assert_eq!(outcome.class, FaultClass::NoEffect);
        prop_assert!(outcome.affected.is_empty());
    }

    #[test]
    fn classification_is_monotone_in_window(
        seed in prop::collection::vec((0i64..10_000, any::<bool>()), 1..30),
        flip_at in 1i64..9_000,
    ) {
        // A fault visible in a window is at least as severe as in a narrower
        // window ending before the divergence.
        let golden = arb_trace(seed.clone());
        let mut faulty = golden.clone();
        let end = golden.digital("out").unwrap().end_time().unwrap();
        let t_flip = end + Time::from_ns(flip_at);
        faulty
            .record_digital("out", t_flip, golden.digital("out").unwrap().value_at(t_flip).flipped())
            .unwrap();
        let wide = ClassifySpec::new(
            (Time::ZERO, t_flip + Time::from_us(1)),
            vec!["out".to_owned()],
        );
        let narrow = ClassifySpec::new(
            (Time::ZERO, t_flip - Time::RESOLUTION),
            vec!["out".to_owned()],
        );
        prop_assert_eq!(classify(&narrow, &golden, &faulty).class, FaultClass::NoEffect);
        prop_assert_ne!(classify(&wide, &golden, &faulty).class, FaultClass::NoEffect);
    }

    #[test]
    fn uniform_times_are_sorted_unique_and_in_range(
        from_ns in 0i64..1_000_000,
        span_ns in 1_000i64..1_000_000,
        count in 1usize..200,
    ) {
        let from = Time::from_ns(from_ns);
        let to = from + Time::from_ns(span_ns);
        let times = plan::uniform_times(from, to, count);
        prop_assert_eq!(times.len(), count);
        prop_assert!(times.windows(2).all(|w| w[0] < w[1] || count > span_ns as usize));
        prop_assert!(times.iter().all(|&t| t >= from && t < to));
    }

    #[test]
    fn wilson_interval_is_well_formed(hits in 0usize..100, extra in 0usize..100) {
        let trials = hits + extra;
        let (lo, hi) = report::wilson_interval(hits, trials);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= hi);
        if trials > 0 {
            let p = hits as f64 / trials as f64;
            prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "p = {p} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn wilson_interval_narrows_with_trials(hits_per_10 in 1usize..10) {
        let (lo_s, hi_s) = report::wilson_interval(hits_per_10, 10);
        let (lo_l, hi_l) = report::wilson_interval(hits_per_10 * 100, 1_000);
        prop_assert!(hi_l - lo_l < hi_s - lo_s);
    }

    #[test]
    fn pulse_grid_size_is_product_of_valid_combinations(
        pa in prop::collection::vec(0.5f64..20.0, 1..4),
        rt in prop::collection::vec(10i64..500, 1..4),
    ) {
        // With PW chosen >= max(rt), every combination is valid.
        let max_rt = *rt.iter().max().unwrap();
        let pw = [max_rt, max_rt * 2];
        let grid = plan::pulse_grid(&pa, &rt, &[100], &pw);
        prop_assert_eq!(grid.len(), pa.len() * rt.len() * pw.len());
    }
}

/// Cases of [`toggle_fed_seal_equals_trace_fed_seal`]: the default, or the
/// fuzzers' iteration count, which `ci.sh` widens.
fn toggle_seal_cases() -> u32 {
    std::env::var("AMSFI_FUZZ_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(ProptestConfig::default().cases)
}

/// A two-valued golden wave: `start` at `first_ns`, inverted at each of
/// `edges_ns` after it.
fn two_valued(first_ns: i64, start: bool, edges_ns: &[i64]) -> DigitalWave {
    let mut edges: Vec<i64> = edges_ns
        .iter()
        .filter(|&&t| t > first_ns)
        .copied()
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut wave = DigitalWave::new();
    let mut v = Logic::from_bool(start);
    wave.push(Time::from_ns(first_ns), v).unwrap();
    for t in edges {
        v = v.flipped();
        wave.push(Time::from_ns(t), v).unwrap();
    }
    wave
}

/// A slot's faulty wave as a word lane leaves it: recorded from `touch` on
/// — golden's value there, `'U'` while golden has not recorded — then
/// golden's, inverted over each episode `[e0, e1)` that starts after both
/// have recorded. It changes only where golden does or the comparison
/// flips.
fn touched_from(golden: &DigitalWave, touch: Time, episodes: &[(i64, i64)]) -> DigitalWave {
    let recorded = golden.transitions().first().map_or(Time::MAX, |&(t, _)| t);
    let episodes: Vec<(Time, Time)> = episodes
        .iter()
        .map(|&(e0, len)| (Time::from_ns(e0), Time::from_ns(e0 + len)))
        .filter(|&(e0, _)| e0 > touch && e0 > recorded)
        .collect();
    let mut times: Vec<Time> = golden.transitions().iter().map(|&(t, _)| t).collect();
    times.extend(episodes.iter().flat_map(|&(e0, e1)| [e0, e1]));
    times.push(touch);
    times.retain(|&t| t >= touch);
    times.sort_unstable();
    times.dedup();
    let mut wave = DigitalWave::new();
    for t in times {
        let v = golden.value_at(t);
        let inverted = episodes.iter().any(|&(e0, e1)| e0 <= t && t < e1);
        wave.push(t, if inverted { v.flipped() } else { v })
            .unwrap();
    }
    wave
}

/// `wave`'s records at or before `upto`.
fn prefix(wave: &DigitalWave, upto: Time) -> impl Iterator<Item = (Time, Logic)> + '_ {
    wave.transitions()
        .iter()
        .copied()
        .take_while(move |&(t, _)| t <= upto)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(toggle_seal_cases()))]

    /// A word lane's classifier, shown the prefix of the lane's mismatch
    /// toggles and the slots it has not touched, seals at the watermark and
    /// with the outcome the classifier shown the lane's trace prefix seals
    /// — at zero skew, on digital signals: golden slots the faulty run
    /// touches from power-on, from later on (a `'U'` stretch first) or
    /// never (silent, which blocks both), a name golden registered but never
    /// recorded and one it never registered (the faulty run may record
    /// either), in any mix of outputs and internals, under random windows,
    /// merge gaps, recovery margins, settle windows and watermark steps.
    /// Waves are two-valued: a faulty run that moves between two values
    /// both unequal to golden's (a metalogical one against a strong one)
    /// changes without a toggle, where the trace-fed stream restarts its
    /// quiescence clock and the toggle-fed one cannot.
    #[test]
    fn toggle_fed_seal_equals_trace_fed_seal(
        waves in prop::collection::vec(
            (0i64..300, any::<bool>(), prop::collection::vec(0i64..4_000, 0..12)),
            3,
        ),
        touches in prop::collection::vec((0usize..4, 0i64..2_000), 3),
        episodes in prop::collection::vec(
            prop::collection::vec((0i64..4_000, 1i64..1_500), 0..3),
            3,
        ),
        extra_touches in prop::collection::vec((any::<bool>(), 0i64..3_000), 2),
        outputs in prop::collection::vec(0usize..5, 1..4),
        internals in prop::collection::vec(0usize..5, 0..3),
        from_ns in 0i64..1_000,
        span_ns in 200i64..4_000,
        gap_ns in 0i64..150,
        recovery_ns in 0i64..500,
        settle_ns in 1i64..1_500,
        injected_ns in 0i64..2_000,
        step_ns in 20i64..700,
    ) {
        let names = ["a", "b", "c", "idle", "ghost"];
        let mut golden = Trace::new();
        let mut faulty = Trace::new();
        let idle = golden.digital_slot("idle");
        let mut slots: Vec<(DigitalSlot, DigitalWave)> = vec![(idle, DigitalWave::new())];
        for (i, (first, start, edges)) in waves.iter().enumerate() {
            let g = two_valued(*first, *start, edges);
            let slot = golden.digital_slot(names[i]);
            for &(t, v) in g.transitions() {
                golden.push_digital(slot, t, v).unwrap();
            }
            // 0: silent; 1: from power-on; otherwise from a later instant.
            let (mode, at) = touches[i];
            let f = match mode {
                0 => DigitalWave::new(),
                1 => touched_from(&g, Time::ZERO, &episodes[i]),
                _ => touched_from(&g, Time::from_ns(at), &episodes[i]),
            };
            for &(t, v) in f.transitions() {
                faulty.record_digital(names[i], t, v).unwrap();
            }
            slots.push((slot, f));
        }
        // The faulty run may record the names golden did not.
        let mut faulty_only = Vec::new();
        for (name, &(records, ns)) in ["idle", "ghost"].into_iter().zip(&extra_touches) {
            if !records {
                continue;
            }
            let wave = two_valued(ns, true, &[ns + 500]);
            for &(t, v) in wave.transitions() {
                faulty.record_digital(name, t, v).unwrap();
            }
            faulty_only.push((name, wave));
        }

        let pick = |picks: &[usize]| picks.iter().map(|&i| names[i].to_owned()).collect();
        let mut spec = ClassifySpec::new(
            (Time::from_ns(from_ns), Time::from_ns(from_ns + span_ns)),
            pick(&outputs),
        )
        .with_internals(pick(&internals))
        .with_settle(Time::from_ns(settle_ns));
        spec.merge_gap = Time::from_ns(gap_ns);
        spec.recovery = Time::from_ns(recovery_ns);

        let all = MismatchToggles::between(&golden, &faulty);
        let golden = Golden::new(spec, Arc::new(golden));
        let injected = Time::from_ns(injected_ns);
        let mut by_trace = OnlineClassifier::new(golden.clone(), injected);
        let mut by_toggles = OnlineClassifier::new(golden, injected);
        let mut shown = MismatchToggles::new();
        let mut fed = all.iter().peekable();
        let mut w = Time::ZERO;
        while w <= Time::from_ns(from_ns + span_ns + 2 * step_ns) {
            // What a kernel holds at watermark `w`: every record and every
            // toggle at or before it.
            let mut so_far = Trace::new();
            for (i, (_, f)) in slots.iter().enumerate().skip(1) {
                for (t, v) in prefix(f, w) {
                    so_far.record_digital(names[i - 1], t, v).unwrap();
                }
            }
            for (name, wave) in &faulty_only {
                for (t, v) in prefix(wave, w) {
                    so_far.record_digital(name, t, v).unwrap();
                }
            }
            while let Some((t, slot)) = fed.next_if(|&(t, _)| t <= w) {
                shown.flip(slot, t);
            }
            let untouched: Vec<DigitalSlot> = slots
                .iter()
                .filter(|(_, f)| prefix(f, w).next().is_none())
                .map(|&(slot, _)| slot)
                .collect();
            let parts = [&so_far];
            by_trace.observe(w, &TraceView::new(&parts));
            by_toggles.observe_toggles(w, &shown, &untouched);
            prop_assert_eq!(by_toggles.sealed(), by_trace.sealed(), "at {}", w);
            if by_trace.sealed().is_some() {
                break;
            }
            w += Time::from_ns(step_ns);
        }
    }
}
