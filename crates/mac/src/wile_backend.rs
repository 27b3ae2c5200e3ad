//! [`WileMac`]: the beacon-stuffed injection backend.
//!
//! Two internal modes, matching the two ways the repo drives Wi-LE:
//!
//! - **Injector mode** — one [`Injector`] per device with a full MCU
//!   power trace, optional [`AdaptiveRepeat`] control, two-way receive
//!   windows. This is the campaign/session face; confirms carry
//!   per-request energy.
//! - **Template mode** — the SoA fleet face: parallel
//!   radios/templates/seqs/sent vectors plus one shared payload buffer,
//!   no per-device trace (energy is attributed in closed form by the
//!   caller, exactly as the fleet/metro scenarios always did, so their
//!   reports stay byte-identical).

use crate::primitives::{
    MacProtocol, MacStatus, McpsDataConfirm, McpsDataRequest, MlmeAssociateConfirm,
    MlmeAssociateRequest, MlmeScanConfirm, MlmeScanRequest, MlmeStartConfirm, MlmeStartRequest,
    MlmeWakeConfirm, MlmeWakeRequest,
};
use crate::sap::{AirCtx, MacSap};
use wile::beacon::BeaconTemplate;
use wile::inject::Injector;
use wile::message::Message;
use wile::reliability::{inject_with_repeats, AdaptiveRepeat, RepeatPolicy};
use wile_dot11::mac::SeqControl;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_instrument::energy::energy_mj;
use wile_radio::medium::{RadioId, TxParams};
use wile_radio::time::Duration;

/// One injector-mode device.
struct InjDev {
    inj: Injector,
    radio: RadioId,
    adaptive: Option<AdaptiveRepeat>,
    static_policy: RepeatPolicy,
    handle: u64,
}

/// The SoA template fleet (see module docs).
struct Templates {
    radios: Vec<RadioId>,
    templates: Vec<BeaconTemplate>,
    seqs: Vec<u16>,
    sent: Vec<u32>,
    payload: Vec<u8>,
    tx_power_dbm: f64,
}

enum Backing {
    Injectors(Vec<InjDev>),
    Templates(Templates),
}

/// The Wi-LE MAC backend.
pub struct WileMac {
    backing: Backing,
}

impl Default for WileMac {
    fn default() -> Self {
        Self::new()
    }
}

impl WileMac {
    /// An empty injector-mode MAC; add devices with
    /// [`WileMac::push_injector`].
    pub fn new() -> Self {
        WileMac {
            backing: Backing::Injectors(Vec::new()),
        }
    }

    /// An empty template-mode MAC sharing one `payload` buffer across
    /// the fleet; add devices with [`WileMac::push_template`].
    pub fn with_templates(payload: Vec<u8>, tx_power_dbm: f64) -> Self {
        WileMac {
            backing: Backing::Templates(Templates {
                radios: Vec::new(),
                templates: Vec::new(),
                seqs: Vec::new(),
                sent: Vec::new(),
                payload,
                tx_power_dbm,
            }),
        }
    }

    /// Add an injector-mode device; returns its ordinal.
    pub fn push_injector(&mut self, inj: Injector, radio: RadioId) -> u32 {
        let Backing::Injectors(devs) = &mut self.backing else {
            panic!("push_injector on a template-mode WileMac");
        };
        devs.push(InjDev {
            inj,
            radio,
            adaptive: None,
            static_policy: RepeatPolicy::SINGLE,
            handle: 0,
        });
        devs.len() as u32 - 1
    }

    /// Add a template-mode device; returns its ordinal.
    pub fn push_template(&mut self, template: BeaconTemplate, radio: RadioId) -> u32 {
        let Backing::Templates(t) = &mut self.backing else {
            panic!("push_template on an injector-mode WileMac");
        };
        t.radios.push(radio);
        t.templates.push(template);
        t.seqs.push(0);
        t.sent.push(0);
        t.radios.len() as u32 - 1
    }

    /// Number of devices behind this MAC.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Injectors(d) => d.len(),
            Backing::Templates(t) => t.radios.len(),
        }
    }

    /// Is the MAC empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn inj_dev(&self, device: u32) -> &InjDev {
        let Backing::Injectors(devs) = &self.backing else {
            panic!("injector accessor on a template-mode WileMac");
        };
        &devs[device as usize]
    }

    fn inj_dev_mut(&mut self, device: u32) -> &mut InjDev {
        let Backing::Injectors(devs) = &mut self.backing else {
            panic!("injector accessor on a template-mode WileMac");
        };
        &mut devs[device as usize]
    }

    /// Install adaptive repeat control for an injector-mode device.
    pub fn set_adaptive(&mut self, device: u32, adaptive: AdaptiveRepeat) {
        self.inj_dev_mut(device).adaptive = Some(adaptive);
    }

    /// Set the static repeat policy used when no adaptive controller is
    /// installed.
    pub fn set_static_policy(&mut self, device: u32, policy: RepeatPolicy) {
        self.inj_dev_mut(device).static_policy = policy;
    }

    /// The repeat policy currently in force for a device (adaptive if
    /// installed, else the static one).
    pub fn policy(&self, device: u32) -> RepeatPolicy {
        let d = self.inj_dev(device);
        d.adaptive
            .as_ref()
            .map(|a| a.policy())
            .unwrap_or(d.static_policy)
    }

    /// The adaptive controller's period backoff (zero without one).
    pub fn period_backoff(&self, device: u32) -> Duration {
        self.inj_dev(device)
            .adaptive
            .as_ref()
            .map(|a| a.period_backoff())
            .unwrap_or(Duration::ZERO)
    }

    /// Feed a gateway loss estimate to the adaptive controller.
    pub fn record_feedback(&mut self, device: u32, loss: f64) {
        if let Some(a) = self.inj_dev_mut(device).adaptive.as_mut() {
            a.record_feedback(loss);
        }
    }

    /// Report a carrier-busy observation to the adaptive controller.
    pub fn observe_air_busy(&mut self, device: u32, busy: bool) {
        if let Some(a) = self.inj_dev_mut(device).adaptive.as_mut() {
            a.observe_air_busy(busy);
        }
    }

    /// Borrow an injector-mode device's injector (summaries read the
    /// power trace and identity through this).
    pub fn injector(&self, device: u32) -> &Injector {
        &self.inj_dev(device).inj
    }

    /// Mutably borrow an injector-mode device's injector.
    pub fn injector_mut(&mut self, device: u32) -> &mut Injector {
        &mut self.inj_dev_mut(device).inj
    }

    /// The radio a device transmits on.
    pub fn radio(&self, device: u32) -> RadioId {
        match &self.backing {
            Backing::Injectors(d) => d[device as usize].radio,
            Backing::Templates(t) => t.radios[device as usize],
        }
    }

    /// Template-mode: beacons sent by one device.
    pub fn sent(&self, device: u32) -> u32 {
        match &self.backing {
            Backing::Injectors(d) => d[device as usize].handle as u32,
            Backing::Templates(t) => t.sent[device as usize],
        }
    }

    /// Total beacons sent across the whole MAC.
    pub fn total_sent(&self) -> u64 {
        match &self.backing {
            Backing::Injectors(d) => d.iter().map(|x| x.handle).sum(),
            Backing::Templates(t) => t.sent.iter().map(|&s| s as u64).sum(),
        }
    }

    /// Injector-mode data path (see [`MacSap::mcps_data`]).
    fn inject_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        let policy = if req.copies > 1 {
            RepeatPolicy {
                copies: req.copies,
                spacing: self.policy(req.device).spacing,
            }
        } else {
            RepeatPolicy::SINGLE
        };
        let d = self.inj_dev_mut(req.device);
        d.inj.sleep_until(air.now);
        let device_id = d.inj.identity().device_id;

        // Dispatch to the exact legacy injection entry point — the
        // byte-identity oracles depend on these paths being untouched.
        let (reports, rx_window) = if let Some(window) = req.rx_window {
            let rep = d
                .inj
                .inject_twoway(air.medium, d.radio, req.payload, window);
            let abs = window.absolute(rep.t_tx_end);
            (vec![rep], Some(abs))
        } else if let Some(seq) = req.repeat_of {
            let msg = Message::new(device_id, seq, req.payload);
            (vec![d.inj.inject_message(air.medium, d.radio, &msg)], None)
        } else if policy.copies > 1 {
            (
                inject_with_repeats(&mut d.inj, air.medium, d.radio, req.payload, policy),
                None,
            )
        } else {
            (vec![d.inj.inject(air.medium, d.radio, req.payload)], None)
        };

        let first = reports.first().expect("at least one copy");
        let last = reports.last().expect("at least one copy");
        let model = d.inj.model();
        let mut total_mj = 0.0;
        for r in &reports {
            let (from, to) = r.tx_window();
            total_mj += energy_mj(d.inj.trace(), &model, from, to);
        }
        d.handle += 1;
        McpsDataConfirm {
            device: req.device,
            protocol: MacProtocol::Wile,
            status: MacStatus::Success,
            handle: d.handle,
            seq: first.seq,
            copies_sent: reports.len() as u8,
            beacon_len: first.beacon_len,
            energy_mj: Some(total_mj),
            t_wake: first.t_wake,
            t_tx_start: first.t_tx_start,
            t_tx_end: last.t_tx_end,
            t_sleep: last.t_sleep,
            rx_window,
        }
    }

    /// Template-mode data path: patch-and-transmit, byte-identical to
    /// the pre-SAP SoA fleet wake body. The patched template is copied
    /// once, straight into the medium's shared frame buffer.
    fn template_data(t: &mut Templates, air: &mut AirCtx<'_>, device: u32) -> McpsDataConfirm {
        let i = device as usize;
        let seq = t.seqs[i];
        let frame = t.templates[i].patch(seq, SeqControl::new(seq & 0x0FFF, 0), &t.payload);
        let beacon_len = frame.len();
        let airtime = Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, beacon_len));
        air.medium.transmit(
            t.radios[i],
            air.now,
            TxParams {
                airtime,
                power_dbm: t.tx_power_dbm,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            frame,
        );
        t.seqs[i] = seq.wrapping_add(1);
        t.sent[i] += 1;
        let t_end = air.now + airtime;
        McpsDataConfirm {
            device,
            protocol: MacProtocol::Wile,
            status: MacStatus::Success,
            handle: t.sent[i] as u64,
            seq,
            copies_sent: 1,
            beacon_len,
            energy_mj: None,
            t_wake: air.now,
            t_tx_start: air.now,
            t_tx_end: t_end,
            t_sleep: t_end,
            rx_window: None,
        }
    }

    fn unsupported_handle(&mut self, device: u32) -> u64 {
        match &mut self.backing {
            Backing::Injectors(d) => {
                let d = &mut d[device as usize];
                d.handle += 1;
                d.handle
            }
            Backing::Templates(t) => {
                t.sent[device as usize] += 1;
                t.sent[device as usize] as u64
            }
        }
    }
}

impl MacSap for WileMac {
    fn protocol(&self) -> MacProtocol {
        MacProtocol::Wile
    }

    fn mcps_data(&mut self, air: &mut AirCtx<'_>, req: McpsDataRequest<'_>) -> McpsDataConfirm {
        air.begin("mac.mcps_data.request");
        let confirm = if matches!(self.backing, Backing::Injectors(_)) {
            self.inject_data(air, req)
        } else {
            let Backing::Templates(t) = &mut self.backing else {
                unreachable!()
            };
            Self::template_data(t, air, req.device)
        };
        air.finish("mac.mcps_data.confirm", confirm.t_sleep);
        confirm
    }

    fn mlme_scan(&mut self, air: &mut AirCtx<'_>, req: MlmeScanRequest) -> MlmeScanConfirm {
        // §4.1: "Wi-LE does not associate with an AP for transmission"
        // — there is nothing to scan for.
        air.begin("mac.mlme_scan.request");
        self.unsupported_handle(req.device);
        air.finish("mac.mlme_scan.confirm", air.now);
        MlmeScanConfirm {
            device: req.device,
            protocol: MacProtocol::Wile,
            status: MacStatus::Unsupported,
            found: false,
            frames: 0,
            t_done: air.now,
        }
    }

    fn mlme_associate(
        &mut self,
        air: &mut AirCtx<'_>,
        req: MlmeAssociateRequest,
    ) -> MlmeAssociateConfirm {
        air.begin("mac.mlme_associate.request");
        self.unsupported_handle(req.device);
        air.finish("mac.mlme_associate.confirm", air.now);
        MlmeAssociateConfirm {
            device: req.device,
            protocol: MacProtocol::Wile,
            status: MacStatus::Unsupported,
            connected: false,
            mac_frames: 0,
            higher_layer_frames: 0,
            energy_mj: 0.0,
            t_wake: air.now,
            t_data_sent: air.now,
            t_sleep: air.now,
        }
    }

    fn mlme_start(&mut self, air: &mut AirCtx<'_>, req: MlmeStartRequest) -> MlmeStartConfirm {
        // The injector is always ready; acknowledging keeps the SAP
        // contract (one confirm per request) uniform across backends.
        air.begin("mac.mlme_start.request");
        self.unsupported_handle(req.device);
        air.finish("mac.mlme_start.confirm", air.now);
        MlmeStartConfirm {
            device: req.device,
            protocol: MacProtocol::Wile,
            status: MacStatus::Success,
            next_event_at: None,
        }
    }

    fn mlme_wake(&mut self, air: &mut AirCtx<'_>, req: MlmeWakeRequest) -> MlmeWakeConfirm {
        air.begin("mac.mlme_wake.request");
        let confirm = match &mut self.backing {
            Backing::Injectors(devs) => {
                let d = &mut devs[req.device as usize];
                let downlink = d
                    .inj
                    .listen_window(air.medium, d.radio, req.open, req.close);
                d.handle += 1;
                MlmeWakeConfirm {
                    device: req.device,
                    protocol: MacProtocol::Wile,
                    status: MacStatus::Success,
                    downlink,
                    listened: req.close.since(req.open),
                }
            }
            Backing::Templates(t) => {
                // Template fleets are transmit-only.
                t.sent[req.device as usize] += 1;
                MlmeWakeConfirm {
                    device: req.device,
                    protocol: MacProtocol::Wile,
                    status: MacStatus::Unsupported,
                    downlink: None,
                    listened: Duration::ZERO,
                }
            }
        };
        air.finish("mac.mlme_wake.confirm", req.close.max(air.now));
        confirm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::McpsDataRequest;
    use wile::monitor::Gateway;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_radio::time::Instant;
    use wile_telemetry::Telemetry;

    fn medium() -> Medium {
        Medium::new(Default::default(), 3)
    }

    #[test]
    fn injector_mode_matches_direct_injection_byte_for_byte() {
        // SAP-routed injection vs the raw Injector: same frames on air.
        let mut m_direct = medium();
        let r_direct = m_direct.attach(RadioConfig::default());
        let mut inj = Injector::new(DeviceIdentity::new(7), Instant::ZERO);
        let rep = inj.inject(&mut m_direct, r_direct, b"t=21.5C");

        let mut m_sap = medium();
        let r_sap = m_sap.attach(RadioConfig::default());
        let mut mac = WileMac::new();
        let dev = mac.push_injector(Injector::new(DeviceIdentity::new(7), Instant::ZERO), r_sap);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m_sap, Instant::ZERO, &mut tel);
        let confirm = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"t=21.5C"));

        let direct: Vec<_> = m_direct.transmissions().collect();
        let routed: Vec<_> = m_sap.transmissions().collect();
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].3, routed[0].3, "frame bytes must match");
        assert_eq!(direct[0].1, routed[0].1, "tx instants must match");
        assert_eq!(confirm.report().seq, rep.seq);
        assert_eq!(confirm.report().t_sleep, rep.t_sleep);
        assert_eq!(confirm.handle, 1);
        assert!(confirm.energy_mj.unwrap() > 0.0);
    }

    #[test]
    fn template_mode_matches_soa_fleet_wake_byte_for_byte() {
        use wile::beacon::BeaconTemplate;
        let identity = DeviceIdentity::new(3);
        let at = Instant::from_ms(500);

        // Direct SoA body (the pre-SAP fleet wake).
        let mut m_direct = medium();
        let r = m_direct.attach(RadioConfig::default());
        let mut tpl = BeaconTemplate::new(identity.mac, 3, 8).unwrap();
        let payload = vec![0u8; 8];
        let frame = tpl.render(0, SeqControl::new(0, 0), &payload);
        let airtime = Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, frame.len()));
        m_direct.transmit(
            r,
            at,
            TxParams {
                airtime,
                power_dbm: 0.0,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            frame,
        );

        // SAP-routed template transmit.
        let mut m_sap = medium();
        let r2 = m_sap.attach(RadioConfig::default());
        let mut mac = WileMac::with_templates(vec![0u8; 8], 0.0);
        let dev = mac.push_template(BeaconTemplate::new(identity.mac, 3, 8).unwrap(), r2);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m_sap, at, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, &[]));

        let direct: Vec<_> = m_direct.transmissions().collect();
        let routed: Vec<_> = m_sap.transmissions().collect();
        assert_eq!(direct[0].3, routed[0].3);
        assert_eq!(direct[0].1, routed[0].1);
        assert_eq!(c.seq, 0);
        assert_eq!(mac.total_sent(), 1);
    }

    #[test]
    fn confirms_are_fifo_per_device() {
        let mut m = medium();
        let mut mac = WileMac::new();
        let r0 = m.attach(RadioConfig::default());
        let r1 = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let d0 = mac.push_injector(Injector::new(DeviceIdentity::new(1), Instant::ZERO), r0);
        let d1 = mac.push_injector(Injector::new(DeviceIdentity::new(2), Instant::ZERO), r1);
        let mut tel = Telemetry::off();
        let mut handles = [Vec::new(), Vec::new()];
        let mut now = Instant::ZERO;
        for i in 0..6u32 {
            let dev = if i % 2 == 0 { d0 } else { d1 };
            let mut air = AirCtx::bare(&mut m, now, &mut tel);
            let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"x"));
            now = c.t_sleep;
            handles[dev as usize].push(c.handle);
        }
        assert_eq!(handles[0], vec![1, 2, 3]);
        assert_eq!(handles[1], vec![1, 2, 3]);
    }

    #[test]
    fn wake_primitive_catches_downlink_in_window() {
        let mut m = medium();
        let gw_radio = m.attach(RadioConfig::default());
        let dev_radio = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut mac = WileMac::new();
        let dev = mac.push_injector(
            Injector::new(DeviceIdentity::new(5), Instant::ZERO),
            dev_radio,
        );
        let mut tel = Telemetry::off();

        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let c = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"up"));

        // Gateway pages the device inside a window after the uplink.
        let open = c.t_sleep + Duration::from_ms(1);
        let close = open + Duration::from_ms(2);
        m.transmit(
            gw_radio,
            open + Duration::from_us(300),
            TxParams {
                airtime: Duration::from_us(60),
                power_dbm: 0.0,
                min_snr_db: 5.0,
            },
            b"page!".to_vec(),
        );
        let mut air = AirCtx::bare(&mut m, open, &mut tel);
        let wake = mac.mlme_wake(
            &mut air,
            MlmeWakeRequest {
                device: dev,
                open,
                close,
            },
        );
        assert_eq!(wake.status, MacStatus::Success);
        assert_eq!(wake.downlink.as_deref(), Some(&b"page!"[..]));
        assert_eq!(wake.listened, Duration::from_ms(2));
    }

    #[test]
    fn repeats_reuse_the_sequence_number() {
        let mut m = medium();
        let r = m.attach(RadioConfig::default());
        let gw = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let mut mac = WileMac::new();
        let dev = mac.push_injector(Injector::new(DeviceIdentity::new(9), Instant::ZERO), r);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        let first = mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"r1"));
        let mut air = AirCtx::bare(&mut m, first.t_sleep + Duration::from_ms(10), &mut tel);
        let copy = mac.mcps_data(
            &mut air,
            McpsDataRequest {
                device: dev,
                payload: b"r1",
                rx_window: None,
                copies: 1,
                repeat_of: Some(first.seq),
            },
        );
        assert_eq!(copy.seq, first.seq);
        // The gateway dedups the copy: one delivery, one duplicate.
        let mut gateway = Gateway::new();
        let got = gateway.poll(&mut m, gw, copy.t_sleep);
        assert_eq!(got.len(), 1);
        assert_eq!(gateway.stats().duplicates, 1);
    }

    #[test]
    fn telemetry_counts_requests_and_confirms() {
        let mut m = medium();
        let r = m.attach(RadioConfig::default());
        let mut mac = WileMac::new();
        let dev = mac.push_injector(Injector::new(DeviceIdentity::new(1), Instant::ZERO), r);
        let mut tel = Telemetry::new();
        let mut air = AirCtx::bare(&mut m, Instant::ZERO, &mut tel);
        mac.mcps_data(&mut air, McpsDataRequest::plain(dev, b"x"));
        let c = mac.mlme_scan(&mut air, MlmeScanRequest { device: dev });
        assert_eq!(c.status, MacStatus::Unsupported);
    }
}
