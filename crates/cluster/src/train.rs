//! The poll train: the one definition of when a [`GatewayCluster`] is
//! polled and what each poll does. The metro, chaos and mixed scenarios
//! (frames from the medium) and the `wile-gatewayd` core (frames staged
//! from the wire) all drive their cluster through a [`PollTrain`]:
//!
//! * **Schedule.** The first poll is due at `ZERO + poll_every`, even
//!   past the horizon; each poll at `t < horizon` makes the next due at
//!   `min(t + poll_every, horizon)`, so the last lands on the horizon.
//! * **Body.** Drain every lane up to the poll instant → fold each
//!   delivery into the FNV-1a digest → retain it when asked to → evict
//!   stale devices.
//!
//! Changing either moves an aggregation batch boundary, which the
//! pinned golden digests catch.

use crate::cluster::GatewayCluster;
use crate::report::{fold_delivery, ClusterDelivery, FNV_OFFSET};
use wile_radio::time::{Duration, Instant};

/// What one poll produced.
#[derive(Debug)]
pub struct Polled {
    /// The poll instant.
    pub at: Instant,
    /// This poll's deliveries, in cluster order.
    pub deliveries: Vec<ClusterDelivery>,
    /// Devices evicted as stale at this poll.
    pub evicted: usize,
}

/// A [`GatewayCluster`] plus its poll schedule, running digest,
/// retained deliveries and eviction list. See the module docs.
#[derive(Debug)]
pub struct PollTrain {
    cluster: GatewayCluster,
    workers: usize,
    poll_every: Duration,
    horizon: Instant,
    keep_deliveries: bool,
    /// Next due poll; `None` once the final poll has run.
    next: Option<Instant>,
    /// Last executed poll.
    last: Option<Instant>,
    polls: u64,
    digest: u64,
    deliveries: Vec<ClusterDelivery>,
    evicted: Vec<u32>,
}

impl PollTrain {
    /// A train over `cluster` polling every `poll_every` through
    /// `horizon` with up to `workers` aggregation threads, retaining a
    /// copy of every delivery only when `keep_deliveries`. Panics if
    /// `poll_every` is zero: the schedule would never advance.
    pub fn new(
        cluster: GatewayCluster,
        workers: usize,
        poll_every: Duration,
        horizon: Instant,
        keep_deliveries: bool,
    ) -> Self {
        assert!(poll_every > Duration::ZERO, "poll_every must be positive");
        PollTrain {
            cluster,
            workers,
            poll_every,
            horizon,
            keep_deliveries,
            next: Some(Instant::ZERO + poll_every),
            last: None,
            polls: 0,
            digest: FNV_OFFSET,
            deliveries: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// When the next poll is due; `None` once the final poll has run.
    pub fn next_due(&self) -> Option<Instant> {
        self.next
    }

    /// The last executed poll, if any.
    pub fn last_poll(&self) -> Option<Instant> {
        self.last
    }

    /// Run the next due poll. `drain(cluster, at, workers)` pulls every
    /// lane's frames up to `at` through the cluster (a
    /// [`poll_tapped`](GatewayCluster::poll_tapped) over the medium or a
    /// [`poll_staged`](GatewayCluster::poll_staged) over wire-fed
    /// buffers). Panics if the final poll has already run.
    pub fn poll<D>(&mut self, drain: D) -> Polled
    where
        D: FnOnce(&mut GatewayCluster, Instant, usize) -> Vec<ClusterDelivery>,
    {
        let at = self.next.expect("the final poll has already run");
        let deliveries = drain(&mut self.cluster, at, self.workers);
        for d in &deliveries {
            fold_delivery(&mut self.digest, d);
        }
        if self.keep_deliveries {
            self.deliveries.extend_from_slice(&deliveries);
        }
        let evicted = self.cluster.evict_stale(at);
        self.polls += 1;
        self.last = Some(at);
        self.next = (at < self.horizon).then(|| (at + self.poll_every).min(self.horizon));
        let polled = Polled {
            at,
            deliveries,
            evicted: evicted.len(),
        };
        self.evicted.extend(evicted);
        polled
    }

    /// The cluster the train drives.
    pub fn cluster(&self) -> &GatewayCluster {
        &self.cluster
    }

    /// Mutable access to the cluster (lane events, per-poll audits).
    pub fn cluster_mut(&mut self) -> &mut GatewayCluster {
        &mut self.cluster
    }

    /// Polls executed so far.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Running FNV-1a digest over every delivery so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Consume the train: the cluster, the retained deliveries (empty
    /// unless `keep_deliveries`), and the eviction list.
    pub fn into_parts(self) -> (GatewayCluster, Vec<ClusterDelivery>, Vec<u32>) {
        (self.cluster, self.deliveries, self.evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;

    fn train(poll_every_s: u64, horizon_s: u64) -> PollTrain {
        PollTrain::new(
            GatewayCluster::new(ClusterConfig::default()),
            1,
            Duration::from_secs(poll_every_s),
            Instant::from_secs(horizon_s),
            false,
        )
    }

    fn schedule(mut t: PollTrain) -> Vec<u64> {
        let mut at = Vec::new();
        while t.next_due().is_some() {
            at.push(t.poll(|_, _, _| Vec::new()).at.as_nanos() / 1_000_000_000);
        }
        at
    }

    #[test]
    fn final_poll_lands_exactly_on_the_horizon() {
        assert_eq!(schedule(train(5, 12)), [5, 10, 12]);
        assert_eq!(schedule(train(5, 15)), [5, 10, 15]);
    }

    #[test]
    fn a_horizon_before_the_first_poll_still_gets_one_poll() {
        assert_eq!(schedule(train(5, 2)), [5]);
    }

    #[test]
    #[should_panic(expected = "poll_every must be positive")]
    fn zero_poll_every_is_refused() {
        train(0, 10);
    }
}
