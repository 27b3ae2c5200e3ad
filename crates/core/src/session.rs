//! A complete two-way session: the §6 extension run as a protocol over
//! many reporting cycles.
//!
//! The device opens a receive window after every `window_every`-th
//! beacon (opening one after *every* beacon would spend listen energy
//! even when no one has anything to say). The gateway keeps a per-device
//! command queue and transmits the head-of-line command into each window
//! it hears announced. Delivery is confirmed implicitly: the device
//! echoes the last executed command id in its next uplink message
//! header, and the gateway retires the command on seeing the echo.

use crate::inject::Injector;
use crate::twoway::{rx_window_of, RxWindow};
use std::collections::HashMap;
use std::collections::VecDeque;
use wile_dot11::mgmt::Beacon;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_radio::medium::{Medium, RadioId, TxParams};
use wile_radio::time::{Duration, Instant};

/// A queued downlink command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Command id (echoed back by the device once executed).
    pub id: u16,
    /// Command bytes.
    pub body: Vec<u8>,
}

impl Command {
    /// Serialize: id (2 B, BE) then body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.body.len());
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse.
    pub fn parse(b: &[u8]) -> Option<Self> {
        if b.len() < 2 {
            return None;
        }
        Some(Command {
            id: u16::from_be_bytes([b[0], b[1]]),
            body: b[2..].to_vec(),
        })
    }
}

/// The gateway's downlink side: per-device command queues.
#[derive(Debug, Default)]
pub struct CommandQueue {
    queues: HashMap<u32, VecDeque<Command>>,
    next_id: u16,
    /// Commands confirmed executed (device id, command id).
    pub confirmed: Vec<(u32, u16)>,
}

impl CommandQueue {
    /// An empty queue set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a command for `device_id`; returns its id.
    pub fn push(&mut self, device_id: u32, body: &[u8]) -> u16 {
        self.next_id = self.next_id.wrapping_add(1);
        let id = self.next_id;
        self.queues
            .entry(device_id)
            .or_default()
            .push_back(Command {
                id,
                body: body.to_vec(),
            });
        id
    }

    /// The command the gateway would send to `device_id` next.
    pub fn head(&self, device_id: u32) -> Option<&Command> {
        self.queues.get(&device_id).and_then(|q| q.front())
    }

    /// Pending commands for `device_id`.
    pub fn pending(&self, device_id: u32) -> usize {
        self.queues.get(&device_id).map(|q| q.len()).unwrap_or(0)
    }

    /// Process an uplink echo: the device reports the last command id it
    /// executed; retire it (and anything earlier, ids being monotonic
    /// per queue).
    pub fn confirm(&mut self, device_id: u32, echoed_id: u16) {
        if let Some(q) = self.queues.get_mut(&device_id) {
            while let Some(front) = q.front() {
                if front.id <= echoed_id {
                    let c = q.pop_front().unwrap();
                    self.confirmed.push((device_id, c.id));
                } else {
                    break;
                }
            }
        }
    }
}

/// Uplink payload of a two-way device: the sensor reading plus the echo
/// of the last executed command (0 = none yet).
pub fn uplink_payload(last_cmd: u16, reading: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + reading.len());
    out.extend_from_slice(&last_cmd.to_be_bytes());
    out.extend_from_slice(reading);
    out
}

/// Split an uplink payload into (echoed command id, reading).
pub fn parse_uplink(payload: &[u8]) -> Option<(u16, &[u8])> {
    if payload.len() < 2 {
        return None;
    }
    Some((u16::from_be_bytes([payload[0], payload[1]]), &payload[2..]))
}

/// Drain the gateway's inbox up to `up_to` and serve it: confirm
/// command echoes carried in uplinks from `device_id`, and answer any
/// announced receive window with the head-of-line queued command.
///
/// Returns the number of uplinks accepted. This is the gateway half of
/// one session cycle, shared by the synchronous [`run_session`] loop and
/// the event-driven kernel port in `wile-scenarios` — both must issue
/// the exact same medium calls for their outcomes to match.
pub fn gateway_serve(
    medium: &mut Medium,
    gw_radio: RadioId,
    device_id: u32,
    queue: &mut CommandQueue,
    up_to: Instant,
) -> usize {
    let mut uplinks = 0usize;
    for rx in medium.take_inbox(gw_radio, up_to) {
        let Ok(beacon) = Beacon::new_checked(&rx.bytes[..]) else {
            continue;
        };
        let frags = crate::beacon::wile_fragments(&beacon);
        let Some(msg) = crate::encode::decode_fragments(frags) else {
            continue;
        };
        if msg.device_id != device_id {
            continue;
        }
        uplinks += 1;
        if let Some((echo, _)) = parse_uplink(&msg.payload) {
            queue.confirm(device_id, echo);
        }
        if let (Some(win), Some(cmd)) = (rx_window_of(&beacon), queue.head(device_id)) {
            let (open, close) = win.absolute(rx.at);
            let airtime = Duration::from_us(frame_airtime_us(
                PhyRate::Ofdm(24),
                cmd.to_bytes().len() + 30,
            ));
            let at = open + Duration::from_us(200);
            if at + airtime <= close {
                medium.transmit(
                    gw_radio,
                    at,
                    TxParams {
                        airtime,
                        power_dbm: 0.0,
                        min_snr_db: PhyRate::Ofdm(24).min_snr_db(),
                    },
                    cmd.to_bytes(),
                );
            }
        }
    }
    uplinks
}

/// Outcome of a multi-cycle two-way session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Uplink readings the gateway received, in order.
    pub uplinks: usize,
    /// Commands delivered to (executed by) the device.
    pub commands_executed: Vec<u16>,
    /// Commands the gateway confirmed via echoes.
    pub commands_confirmed: usize,
    /// Total time the device's receiver was on.
    pub device_listen_time: Duration,
}

/// Drive `cycles` reporting rounds between one device and one gateway.
///
/// The device announces an RX window on every `window_every`-th beacon;
/// the gateway replies into announced windows with the head-of-line
/// command. Everything crosses the simulated medium.
#[allow(clippy::too_many_arguments)]
pub fn run_session(
    medium: &mut Medium,
    dev_radio: RadioId,
    gw_radio: RadioId,
    injector: &mut Injector,
    queue: &mut CommandQueue,
    cycles: usize,
    window_every: usize,
    period: Duration,
) -> SessionOutcome {
    assert!(window_every >= 1);
    let window = RxWindow {
        offset_us: 300,
        length_us: 3_000,
    };
    let device_id = injector.identity().device_id;
    let mut last_cmd = 0u16;
    let mut executed = Vec::new();
    let mut uplinks = 0usize;
    let mut listen_total = Duration::ZERO;

    for cycle in 0..cycles {
        let announce = (cycle + 1) % window_every == 0;
        let wake_at = Instant::from_ms(500) + period.mul(cycle as u64);
        injector.sleep_until(wake_at);

        // Uplink: reading + echo of the last executed command.
        let payload = uplink_payload(last_cmd, format!("r{cycle}").as_bytes());
        let report = if announce {
            injector.inject_twoway(medium, dev_radio, &payload, window)
        } else {
            injector.inject(medium, dev_radio, &payload)
        };

        // Gateway: pick up the uplink, confirm echoes, and answer into
        // an announced window.
        uplinks += gateway_serve(
            medium,
            gw_radio,
            device_id,
            queue,
            report.t_tx_end + Duration::from_ms(1),
        );

        // Device: if it announced a window, listen through it.
        if announce {
            let (open, close) = window.absolute(report.t_tx_end);
            listen_total += close.since(open);
            let downlink = injector.listen_window(medium, dev_radio, open, close);
            if let Some(bytes) = downlink {
                if let Some(cmd) = Command::parse(&bytes) {
                    last_cmd = cmd.id;
                    executed.push(cmd.id);
                }
            }
        }
    }

    SessionOutcome {
        uplinks,
        commands_executed: executed,
        commands_confirmed: queue.confirmed.len(),
        device_listen_time: listen_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DeviceIdentity;
    use wile_radio::{Medium, RadioConfig};

    fn setup() -> (Medium, RadioId, RadioId, Injector) {
        let mut medium = Medium::new(Default::default(), 55);
        let dev = medium.attach(RadioConfig::default());
        let gw = medium.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        let inj = Injector::new(DeviceIdentity::new(9), Instant::ZERO);
        (medium, dev, gw, inj)
    }

    #[test]
    fn command_round_trip() {
        let c = Command {
            id: 513,
            body: b"interval=300".to_vec(),
        };
        assert_eq!(Command::parse(&c.to_bytes()).unwrap(), c);
        assert!(Command::parse(&[1]).is_none());
    }

    #[test]
    fn uplink_payload_round_trip() {
        let p = uplink_payload(7, b"t=20C");
        let (echo, reading) = parse_uplink(&p).unwrap();
        assert_eq!(echo, 7);
        assert_eq!(reading, b"t=20C");
        assert!(parse_uplink(&[0]).is_none());
    }

    #[test]
    fn queue_confirms_monotonically() {
        let mut q = CommandQueue::new();
        let a = q.push(1, b"a");
        let b = q.push(1, b"b");
        let _c = q.push(2, b"other device");
        assert_eq!(q.pending(1), 2);
        q.confirm(1, a);
        assert_eq!(q.pending(1), 1);
        assert_eq!(q.head(1).unwrap().id, b);
        // Echoing a later id retires everything up to it.
        q.confirm(1, b);
        assert_eq!(q.pending(1), 0);
        // Device 2's queue untouched.
        assert_eq!(q.pending(2), 1);
        assert_eq!(q.confirmed.len(), 2);
    }

    #[test]
    fn session_delivers_commands_and_confirms_them() {
        let (mut medium, dev, gw, mut inj) = setup();
        let mut queue = CommandQueue::new();
        queue.push(9, b"set-interval=120");
        queue.push(9, b"calibrate");
        let out = run_session(
            &mut medium,
            dev,
            gw,
            &mut inj,
            &mut queue,
            6,
            2,
            Duration::from_secs(10),
        );
        assert_eq!(out.uplinks, 6);
        // Windows open on cycles 1, 3, 5 → both commands delivered.
        assert_eq!(out.commands_executed.len(), 2);
        // Each executed command is echoed on the *next* uplink; with 6
        // cycles both echoes land.
        assert_eq!(out.commands_confirmed, 2);
        assert_eq!(queue.pending(9), 0);
    }

    #[test]
    fn no_commands_means_quiet_windows() {
        let (mut medium, dev, gw, mut inj) = setup();
        let mut queue = CommandQueue::new();
        let out = run_session(
            &mut medium,
            dev,
            gw,
            &mut inj,
            &mut queue,
            4,
            2,
            Duration::from_secs(10),
        );
        assert_eq!(out.uplinks, 4);
        assert!(out.commands_executed.is_empty());
        // Listen time = 2 windows × 3 ms.
        assert_eq!(out.device_listen_time, Duration::from_us(6_000));
    }

    #[test]
    fn sparser_windows_less_listen_energy() {
        let run_with = |every: usize| {
            let (mut medium, dev, gw, mut inj) = setup();
            let mut queue = CommandQueue::new();
            run_session(
                &mut medium,
                dev,
                gw,
                &mut inj,
                &mut queue,
                12,
                every,
                Duration::from_secs(10),
            )
            .device_listen_time
        };
        assert!(run_with(1) > run_with(3));
        assert!(run_with(3) > run_with(6));
    }

    #[test]
    #[should_panic]
    fn window_every_zero_rejected() {
        let (mut medium, dev, gw, mut inj) = setup();
        let mut queue = CommandQueue::new();
        run_session(
            &mut medium,
            dev,
            gw,
            &mut inj,
            &mut queue,
            1,
            0,
            Duration::from_secs(1),
        );
    }
}
