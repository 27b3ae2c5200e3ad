//! First-class gateway ingest stage.
//!
//! Every scenario that models channel faults does it the same way:
//! frames are pulled raw off the medium, run through the seeded
//! [`FaultTimeline`] keyed by their arrival instant, and only survivors
//! reach [`Gateway::ingest`]. Before the kernel existed that pipeline
//! was re-implemented per driver (`drain_gateway` in `campaign.rs` was
//! the canonical copy); [`GatewayIngest`] is the one shared
//! implementation, used by the campaign, the fleet, and every cluster
//! lane.

use wile::monitor::{Gateway, Received};
use wile_mac::{MacProtocol, McpsDataIndication};
use wile_radio::fault::FaultOutcome;
use wile_radio::medium::{Medium, RadioId, RxFrame};
use wile_radio::plan::FaultTimeline;
use wile_radio::time::Instant;

/// A gateway bound to its radio, draining through the fault timeline.
#[derive(Debug)]
pub struct GatewayIngest {
    radio: RadioId,
    gateway: Gateway,
}

impl GatewayIngest {
    /// Bind `gateway` to the medium radio it listens on.
    pub fn new(radio: RadioId, gateway: Gateway) -> Self {
        GatewayIngest { radio, gateway }
    }

    /// The gateway's radio id.
    pub fn radio(&self) -> RadioId {
        self.radio
    }

    /// The wrapped gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Mutable access to the wrapped gateway (link health, stats).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// Unwrap the gateway (post-run reporting).
    pub fn into_gateway(self) -> Gateway {
        self.gateway
    }

    /// Pull raw frames that arrived by `up_to` from the gateway radio,
    /// apply the fault timeline (outage ⇒ skip, drop ⇒ skip, corruption
    /// ⇒ pass through mutated — the gateway's FCS check is the
    /// component under test for those), and feed survivors through the
    /// gateway pipeline. Returns newly delivered messages.
    pub fn drain(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
    ) -> Vec<Received> {
        self.drain_when(medium, faults, up_to, |_| true)
    }

    /// [`drain`](GatewayIngest::drain), with every delivery lifted into
    /// an MCPS-DATA.indication — the gateway-side face of the MAC
    /// service layer (`wile-mac`). Counts are identical to `drain`'s;
    /// the lift moves payloads, it never copies or filters.
    pub fn drain_indications(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
    ) -> Vec<McpsDataIndication> {
        self.drain(medium, faults, up_to)
            .into_iter()
            .map(|r| McpsDataIndication::from_received(MacProtocol::Wile, r))
            .collect()
    }

    /// [`drain`](GatewayIngest::drain) with an additional per-frame
    /// admission predicate, consulted with each frame's arrival instant
    /// *before* the air-side fault timeline. Frames the predicate
    /// rejects are consumed from the medium and discarded — exactly
    /// like an air-side outage, they never reach the pipeline and never
    /// count as pipeline state. This is the hook the cluster layer uses
    /// to model a crashed gateway process: its radio keeps receiving,
    /// but nothing behind it is alive to look.
    pub fn drain_when(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
        admit: impl FnMut(Instant) -> bool,
    ) -> Vec<Received> {
        self.drain_when_tapped(medium, faults, up_to, admit, None)
    }

    /// [`drain_when`](GatewayIngest::drain_when) with an observation tap
    /// invoked on every raw frame pulled off the medium, *before* the
    /// admission predicate or fault timeline touch it. The tap sees the
    /// byte-exact air-side stream — it is the capture hook `.wcap`
    /// recorders hang off — and must not perturb results: it takes the
    /// frame by shared reference and the drain proceeds identically
    /// whether a tap is present or not.
    pub fn drain_when_tapped(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
        admit: impl FnMut(Instant) -> bool,
        mut tap: Option<&mut dyn FnMut(&RxFrame)>,
    ) -> Vec<Received> {
        let frames = medium.take_inbox(self.radio, up_to);
        if let Some(t) = tap.as_mut() {
            for f in &frames {
                t(f);
            }
        }
        self.ingest_when(frames, faults, admit)
    }

    /// The medium-free back half of
    /// [`drain_when`](GatewayIngest::drain_when): apply the admission
    /// predicate and air-side fault timeline to frames the *caller*
    /// sourced (a staged replay buffer, a socket, a capture file) and
    /// feed survivors through the gateway pipeline. `drain_when` is
    /// exactly `take_inbox` + this — the ingestion service front-end
    /// reuses this half so a replayed frame takes the byte-identical
    /// code path a simulated one does.
    pub fn ingest_when(
        &mut self,
        frames: impl IntoIterator<Item = RxFrame>,
        mut faults: Option<&mut FaultTimeline>,
        mut admit: impl FnMut(Instant) -> bool,
    ) -> Vec<Received> {
        let survivors = frames.into_iter().filter_map(|mut f| {
            if !admit(f.at) {
                return None;
            }
            if let Some(tl) = faults.as_deref_mut() {
                if tl.gateway_down(f.at)
                    || tl.apply_shared(f.at, &mut f.bytes) == FaultOutcome::Dropped
                {
                    return None;
                }
            }
            Some(f)
        });
        self.gateway.ingest(survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile::inject::Injector;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::RadioConfig;
    use wile_radio::plan::{Disturbance, FaultPhase, FaultPlan};

    fn world() -> (Medium, RadioId, RadioId) {
        let mut medium = Medium::new(Default::default(), 11);
        let gw = medium.attach(RadioConfig::default());
        let dev = medium.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        (medium, gw, dev)
    }

    #[test]
    fn faultless_drain_delivers() {
        let (mut medium, gw, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"reading");
        let mut ingest = GatewayIngest::new(gw, Gateway::new());
        let got = ingest.drain(&mut medium, None, Instant::from_secs(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].device_id, 5);
    }

    #[test]
    fn outage_swallows_frames() {
        let (mut medium, gw, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"reading");
        // The beacon lands ~480 ms in; a 0–10 s outage covers it.
        let plan = FaultPlan::new(
            vec![FaultPhase::new(
                Instant::ZERO,
                Instant::from_secs(10),
                Disturbance::GatewayOutage,
                "reboot",
            )],
            3,
        );
        let mut tl = FaultTimeline::new(plan);
        let mut ingest = GatewayIngest::new(gw, Gateway::new());
        let got = ingest.drain(&mut medium, Some(&mut tl), Instant::from_secs(2));
        assert!(got.is_empty());
        // Frames consumed during the outage are gone, not deferred.
        let later = ingest.drain(&mut medium, Some(&mut tl), Instant::from_secs(20));
        assert!(later.is_empty());
    }
}
