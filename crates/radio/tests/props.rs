//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use wile_radio::channel::ChannelModel;
use wile_radio::clock::DriftClock;
use wile_radio::gilbert::GilbertElliott;
use wile_radio::medium::{Medium, RadioConfig, TxParams};
use wile_radio::naive::NaiveMedium;
use wile_radio::per::packet_error_rate;
use wile_radio::time::{Duration, Instant};
use wile_radio::{EventQueue, NaiveEventQueue};

/// One randomized radio: position in a 60 m box, one of three channels,
/// one of two sensitivities.
fn arb_radio() -> impl Strategy<Value = RadioConfig> {
    (0.0f64..60.0, 0.0f64..60.0, 0u8..3, any::<bool>()).prop_map(|(x, y, ch, deaf)| RadioConfig {
        position_m: (x, y),
        channel: [1, 6, 11][ch as usize],
        sensitivity_dbm: if deaf { -75.0 } else { -92.0 },
    })
}

/// A wide-area radio: positions span a ~half-kilometre metro hall —
/// dozens of spatial grid cells, so the sharded inbox walk has real
/// neighbourhoods to cull (most pairs are beyond the sensitivity
/// horizon of a 0/10 dBm transmission).
fn arb_radio_wide() -> impl Strategy<Value = RadioConfig> {
    (-200.0f64..400.0, -200.0f64..400.0, 0u8..3, any::<bool>()).prop_map(|(x, y, ch, deaf)| {
        RadioConfig {
            position_m: (x, y),
            channel: [1, 6, 11][ch as usize],
            sensitivity_dbm: if deaf { -75.0 } else { -92.0 },
        }
    })
}

/// One randomized transmission: sender index, start gap (µs), airtime
/// (µs), payload length, tx power.
type TrafficItem = (usize, u64, u64, usize, bool);

fn arb_traffic() -> impl Strategy<Value = Vec<TrafficItem>> {
    prop::collection::vec(
        (0usize..8, 0u64..800, 20u64..400, 1usize..40, any::<bool>()),
        1..60,
    )
}

/// Traffic that mixes multi-millisecond airtimes with 20 µs frames at
/// gaps far shorter than the long ones: every long frame overlaps dozens
/// of short ones on all three channels, so the collision scan's backward
/// gallop (bounded by the longest airtime seen) spans many entries of
/// its channel's list between interleaved other-channel traffic, and
/// under retirement runs into the start of the retained list.
fn arb_mixed_airtime_traffic() -> impl Strategy<Value = Vec<TrafficItem>> {
    prop::collection::vec(
        (
            0usize..8,
            0u64..300,
            (0u8..4, 1_000u64..6_000),
            1usize..40,
            any::<bool>(),
        )
            .prop_map(|(sender, gap_us, (kind, long_us), len, high)| {
                let airtime_us = if kind == 0 { long_us } else { 20 };
                (sender, gap_us, airtime_us, len, high)
            }),
        1..150,
    )
}

/// Drive the optimized and naive media through identical topology,
/// traffic, interleaved polls and carrier-sense queries; every
/// observable must match bit-for-bit.
fn assert_media_equivalent(
    seed: u64,
    sigma_db: f64,
    radios: &[RadioConfig],
    traffic: &[TrafficItem],
    poll_every: usize,
    bounded: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let model = ChannelModel {
        shadowing_sigma_db: sigma_db,
        ..Default::default()
    };
    let mut fast = Medium::new(model, seed);
    let mut slow = NaiveMedium::new(model, seed);
    fast.retire_consumed(bounded);
    let ids: Vec<_> = radios.iter().map(|&cfg| fast.attach(cfg)).collect();
    for &cfg in radios {
        slow.attach(cfg);
    }
    let mut t = Instant::ZERO;
    for (k, &(sender, gap_us, airtime_us, len, high_power)) in traffic.iter().enumerate() {
        let from = ids[sender % ids.len()];
        t += Duration::from_us(gap_us);
        let params = TxParams {
            airtime: Duration::from_us(airtime_us),
            power_dbm: if high_power { 10.0 } else { 0.0 },
            min_snr_db: 15.0,
        };
        let payload = vec![k as u8; len];
        let end_fast = fast.transmit(from, t, params, payload.clone());
        let end_slow = slow.transmit(from, t, params, payload);
        prop_assert_eq!(end_fast, end_slow);
        // Carrier sense mid-frame must agree for every radio.
        let mid = t + Duration::from_us(airtime_us / 2);
        for &r in &ids {
            prop_assert_eq!(fast.is_busy(r, mid), slow.is_busy(r, mid));
        }
        if (k + 1) % poll_every == 0 {
            for &r in &ids {
                prop_assert_eq!(fast.take_inbox(r, t), slow.take_inbox(r, t));
            }
        }
    }
    let drain = t + Duration::from_secs(1);
    for &r in &ids {
        prop_assert_eq!(fast.take_inbox(r, drain), slow.take_inbox(r, drain));
    }
    if bounded {
        // The whole point of bounded mode: consumed history is gone.
        prop_assert!(fast.live_tx_count() <= traffic.len());
    }
    Ok(())
}

proptest! {
    #[test]
    fn event_queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..10_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &ms) in times.iter().enumerate() {
            q.schedule(Instant::from_ms(ms), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t, i));
        }
        prop_assert_eq!(out.len(), times.len());
        // Sorted by time, ties by insertion order.
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn event_queue_ties_stay_fifo_under_interleaved_schedule_and_pop(
        // Each op: (schedule-time bucket, pops to attempt before the next
        // schedule). Few buckets → many exact-time ties, which is the
        // property under test: ties must pop in schedule order even when
        // pops are interleaved between the schedules.
        ops in prop::collection::vec((0u64..6, 0usize..3), 1..120),
    ) {
        let mut q = EventQueue::new();
        // Popping mid-stream moves `now` forward; later schedules into
        // earlier buckets are "past" events, which the queue documents
        // as firing immediately — exclude them from the FIFO claim by
        // scheduling relative to the queue's own now.
        let mut scheduled = 0u64;
        let mut popped: Vec<(Instant, u64)> = Vec::new();
        for &(bucket, pops) in &ops {
            let at = q.now() + Duration::from_ms(bucket);
            q.schedule(at, scheduled);
            scheduled += 1;
            for _ in 0..pops {
                if let Some(e) = q.pop() {
                    popped.push(e);
                }
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len() as u64, scheduled);
        // Among events popped in one drain stretch, equal times must
        // preserve schedule order (payload = schedule ordinal).
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(
                    w[0].1 < w[1].1,
                    "tie at {} popped out of schedule order: {} before {}",
                    w[0].0, w[0].1, w[1].1
                );
            }
        }
        // And every event was popped exactly once.
        let mut ids: Vec<u64> = popped.iter().map(|e| e.1).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..scheduled).collect::<Vec<_>>());
    }

    #[test]
    fn timer_wheel_matches_naive_heap_pop_for_pop(
        // Random interleaving of schedules and pops. Times come from a
        // few coarse buckets scaled up to spread across wheel levels,
        // plus a jitter that often collides — exercising same-instant
        // FIFO ties, far-future cascades, and (since pops move `now`
        // while schedules may land behind it) the overdue path.
        ops in prop::collection::vec(
            (0u64..6, 0u64..4, 0usize..3, any::<bool>()),
            1..200,
        ),
    ) {
        let mut wheel = EventQueue::new();
        let mut naive = NaiveEventQueue::new();
        for (label, &(bucket, jitter, pops, absolute)) in ops.iter().enumerate() {
            let label = label as u64;
            // Absolute times can fall behind `now` once pops happen —
            // the legacy past-scheduling path both queues must agree on.
            let at = if absolute {
                Instant::from_ms(bucket * 40 + jitter)
            } else {
                wheel.now() + Duration::from_ms(bucket * 40 + jitter)
            };
            wheel.schedule(at, label);
            naive.schedule(at, label);
            prop_assert_eq!(wheel.peek_time(), naive.peek_time());
            prop_assert_eq!(wheel.len(), naive.len());
            for _ in 0..pops {
                prop_assert_eq!(wheel.pop(), naive.pop());
                prop_assert_eq!(wheel.now(), naive.now());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), naive.pop());
            prop_assert_eq!(a, b);
            prop_assert_eq!(wheel.now(), naive.now());
            if a.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && naive.is_empty());
    }

    #[test]
    fn timer_wheel_matches_naive_heap_in_monotonic_mode(
        // The kernel's usage pattern: monotonic mode on, all schedules
        // via `schedule_after` (never in the past), drains at periodic
        // deadlines. Tight buckets force many exact ties.
        ops in prop::collection::vec((0u64..5, 0u64..3), 1..150),
        drain_every in 1usize..8,
    ) {
        let mut wheel = EventQueue::new();
        let mut naive = NaiveEventQueue::new();
        wheel.assert_monotonic(true);
        naive.assert_monotonic(true);
        let mut wheel_buf = Vec::new();
        for (k, &(bucket, extra)) in ops.iter().enumerate() {
            let label = k as u64;
            let delay = Duration::from_ms(bucket * 25) + Duration::from_us(extra);
            let a1 = wheel.schedule_after(wheel.now(), delay, label);
            let a2 = naive.schedule_after(naive.now(), delay, label);
            prop_assert_eq!(a1, a2);
            if (k + 1) % drain_every == 0 {
                let deadline = wheel.now() + Duration::from_ms(50);
                wheel_buf.clear();
                wheel.drain_until_into(deadline, &mut wheel_buf);
                let naive_out = naive.drain_until(deadline);
                prop_assert_eq!(&wheel_buf, &naive_out);
            }
        }
        prop_assert_eq!(
            wheel.drain_until(Instant::from_secs(3600)),
            naive.drain_until(Instant::from_secs(3600))
        );
    }

    #[test]
    fn schedule_batch_matches_item_by_item_schedules(
        start_ms in 0u64..1_000,
        stride_us in 0u64..5_000,
        count in 0usize..400,
        pre in prop::collection::vec(0u64..2_000, 0..20),
    ) {
        // A batched wake train interleaved with ordinary schedules must
        // be indistinguishable from scheduling each wake individually.
        let mut batched = EventQueue::new();
        let mut single = EventQueue::new();
        for (i, &ms) in pre.iter().enumerate() {
            batched.schedule(Instant::from_ms(ms), u64::MAX - i as u64);
            single.schedule(Instant::from_ms(ms), u64::MAX - i as u64);
        }
        let start = Instant::from_ms(start_ms);
        let stride = Duration::from_us(stride_us);
        batched.schedule_batch(start, stride, (0..count).map(|i| i as u64));
        for i in 0..count {
            single.schedule(start + stride.mul(i as u64), i as u64);
        }
        loop {
            let (a, b) = (batched.pop(), single.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn drain_until_includes_boundary_and_leaves_the_rest(
        times in prop::collection::vec(0u64..2_000, 1..150),
        deadline in 0u64..2_000,
    ) {
        let mut q = EventQueue::new();
        for (i, &us) in times.iter().enumerate() {
            q.schedule(Instant::from_us(us), i);
        }
        let deadline = Instant::from_us(deadline);
        let drained = q.drain_until(deadline);
        // Exactly the events at-or-before the deadline come out —
        // boundary *inclusive* — and everything later stays queued.
        let expect = times.iter().filter(|&&us| Instant::from_us(us) <= deadline).count();
        prop_assert_eq!(drained.len(), expect);
        prop_assert_eq!(q.len(), times.len() - expect);
        for (t, _) in &drained {
            prop_assert!(*t <= deadline);
        }
        if let Some(next) = q.peek_time() {
            prop_assert!(next > deadline);
        }
        // Drained events are themselves time-ordered with FIFO ties.
        for w in drained.windows(2) {
            prop_assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }

    #[test]
    fn duration_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = Duration::from_nanos(a);
        let db = Duration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
        let t = Instant::from_nanos(a) + db;
        prop_assert_eq!(t.since(Instant::from_nanos(a)), db);
    }

    #[test]
    fn per_is_probability_and_monotone(
        snr in -40.0f64..60.0,
        min_snr in 0.0f64..30.0,
        len in 1usize..2304,
    ) {
        let p = packet_error_rate(snr, min_snr, len);
        prop_assert!((0.0..=1.0).contains(&p));
        let p_better = packet_error_rate(snr + 5.0, min_snr, len);
        prop_assert!(p_better <= p);
    }

    #[test]
    fn path_loss_monotone_in_distance(d1 in 0.1f64..1000.0, d2 in 0.1f64..1000.0) {
        prop_assume!(d1 < d2);
        let c = ChannelModel::default();
        prop_assert!(c.path_loss_db(d1) <= c.path_loss_db(d2));
        prop_assert!(c.snr_db(0.0, d1) >= c.snr_db(0.0, d2));
    }

    #[test]
    fn clock_drift_bounded(ppm in -100.0f64..100.0, secs in 1u64..100_000, seed in any::<u64>()) {
        let mut c = DriftClock::new(ppm, Duration::ZERO, seed);
        let nominal = Duration::from_secs(secs);
        let actual = c.true_duration(nominal);
        let err = (actual.as_nanos() as i128 - nominal.as_nanos() as i128).abs() as f64;
        let bound = nominal.as_nanos() as f64 * (ppm.abs() * 1e-6) + 2.0;
        prop_assert!(err <= bound, "err {err} bound {bound}");
    }

    #[test]
    fn medium_delivery_deterministic_per_seed(
        seed in any::<u64>(),
        dist in 1.0f64..80.0,
        n in 1usize..30,
    ) {
        let run = || {
            let mut m = Medium::new(ChannelModel::default(), seed);
            let a = m.attach(RadioConfig::default());
            let b = m.attach(RadioConfig { position_m: (dist, 0.0), ..Default::default() });
            let mut t = Instant::ZERO;
            for i in 0..n {
                t = m.transmit(
                    a,
                    t + Duration::from_ms(1),
                    TxParams { airtime: Duration::from_us(100), power_dbm: 0.0, min_snr_db: 15.0 },
                    vec![i as u8; 100],
                );
            }
            m.take_inbox(b, t + Duration::from_secs(1))
                .iter()
                .map(|f| f.bytes[0])
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn delivered_frames_arrive_in_order_and_intact(
        dist in 0.5f64..5.0,
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 1..20),
    ) {
        // Close range: everything must arrive, in order, bit-exact.
        let mut m = Medium::new(ChannelModel::default(), 9);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig { position_m: (dist, 0.0), ..Default::default() });
        let mut t = Instant::ZERO;
        for p in &payloads {
            t = m.transmit(
                a,
                t + Duration::from_ms(1),
                TxParams { airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 5.0 },
                p.clone(),
            );
        }
        let got = m.take_inbox(b, t + Duration::from_secs(1));
        prop_assert_eq!(got.len(), payloads.len());
        for (rx, p) in got.iter().zip(&payloads) {
            prop_assert_eq!(&rx.bytes[..], &p[..]);
        }
        for w in got.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn gilbert_elliott_stationary_loss_matches_closed_form(
        p_enter in 0.05f64..0.5,
        p_exit in 0.05f64..0.5,
        loss_good in 0.0f64..0.2,
        loss_bad in 0.5f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut ge = GilbertElliott::new(
            p_enter, p_exit, loss_good, loss_bad, Duration::from_ms(1), seed,
        );
        let n = 100_000usize;
        let lost = (0..n).filter(|_| ge.next_frame()).count();
        let measured = lost as f64 / n as f64;
        let expected = ge.stationary_loss();
        // The samples are Markov-correlated: the asymptotic variance of
        // the occupancy fraction is pi(1-pi) * (2/(p_enter+p_exit) - 1)
        // / n; loss indicators add at most Bernoulli noise on top.
        let pi = ge.stationary_bad();
        let occupancy_var = pi * (1.0 - pi) * (2.0 / (p_enter + p_exit) - 1.0) / n as f64;
        let bernoulli_var = expected * (1.0 - expected) / n as f64;
        let tol = 6.0 * (occupancy_var + bernoulli_var).sqrt() + 1e-3;
        prop_assert!(
            (measured - expected).abs() <= tol,
            "measured {measured:.4} vs closed form {expected:.4} (tol {tol:.4})"
        );
    }

    #[test]
    fn inbox_cursor_never_duplicates(
        n in 1usize..20,
        poll_points in prop::collection::vec(0u64..40, 1..10),
    ) {
        let mut m = Medium::new(ChannelModel::default(), 4);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig { position_m: (1.0, 0.0), ..Default::default() });
        let mut t = Instant::ZERO;
        for i in 0..n {
            t = m.transmit(
                a,
                t + Duration::from_ms(1),
                TxParams { airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 5.0 },
                vec![i as u8],
            );
        }
        let mut polls: Vec<u64> = poll_points;
        polls.sort_unstable();
        let mut total = 0;
        for ms in polls {
            total += m.take_inbox(b, Instant::from_ms(ms)).len();
        }
        total += m.take_inbox(b, t + Duration::from_secs(1)).len();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn indexed_medium_matches_naive_reference(
        seed in any::<u64>(),
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
    ) {
        assert_media_equivalent(seed, 0.0, &radios, &traffic, poll_every, false)?;
    }

    #[test]
    fn indexed_medium_matches_naive_reference_with_shadowing(
        seed in any::<u64>(),
        sigma in 1.0f64..10.0,
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
    ) {
        assert_media_equivalent(seed, sigma, &radios, &traffic, poll_every, false)?;
    }

    #[test]
    fn sharded_medium_matches_naive_over_wide_areas(
        seed in any::<u64>(),
        sigma in 0.0f64..10.0,
        radios in prop::collection::vec(arb_radio_wide(), 2..10),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
    ) {
        // Multi-cell topologies (including negative coordinates) where
        // the spatial cull skips most sender cells: the delivered frame
        // streams and carrier-sense answers must still be bit-identical
        // to the naive full walk.
        assert_media_equivalent(seed, sigma, &radios, &traffic, poll_every, false)?;
    }

    #[test]
    fn bounded_medium_matches_naive_reference(
        seed in any::<u64>(),
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_traffic(),
        poll_every in 1usize..10,
    ) {
        // Retirement enabled: deliveries, loss rolls and in-contract
        // carrier sense must still match the full-history reference.
        assert_media_equivalent(seed, 0.0, &radios, &traffic, poll_every, true)?;
    }

    #[test]
    fn collision_scan_matches_naive_under_mixed_airtimes(
        seed in any::<u64>(),
        sigma in 0.0f64..10.0,
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_mixed_airtime_traffic(),
        poll_every in 1usize..10,
    ) {
        assert_media_equivalent(seed, sigma, &radios, &traffic, poll_every, false)?;
    }

    #[test]
    fn bounded_collision_scan_matches_naive_under_mixed_airtimes(
        seed in any::<u64>(),
        sigma in 0.0f64..10.0,
        radios in prop::collection::vec(arb_radio(), 2..8),
        traffic in arb_mixed_airtime_traffic(),
        poll_every in 1usize..4,
    ) {
        // Frequent polls let retirement advance the log's start while
        // long frames still reach back across it.
        assert_media_equivalent(seed, sigma, &radios, &traffic, poll_every, true)?;
    }
}
