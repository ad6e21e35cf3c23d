//! Network links: propagation latency, serialization bandwidth, jitter, loss.
//!
//! Links are directed internally; [`crate::Engine::link`] installs a pair.
//! Each direction owns a `busy_until` instant so back-to-back messages
//! serialize at the link's bandwidth — this is what makes throughput
//! saturate and queueing delay grow in the experiments, rather than being
//! scripted. Each direction also counts its own traffic, the one store of
//! it: the run-wide `link.<label>.*` keys are sums over the links carrying
//! a label (see [`crate::Engine::stats`]).

use crate::time::{SimDuration, SimTime};

/// Immutable description of one direction of a network link.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Serialization bandwidth in bytes per second; `None` = infinite.
    pub bandwidth_bps: Option<u64>,
    /// Maximum uniform random jitter added to each delivery.
    pub jitter: SimDuration,
    /// Probability in `[0,1]` that a message is silently dropped.
    pub loss: f64,
    /// Label used for per-class stats (e.g. `"lan"`, `"wan"`).
    pub label: &'static str,
}

impl LinkSpec {
    /// In-host loopback: 10 microseconds, no bandwidth limit.
    pub fn loopback() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(10),
            bandwidth_bps: None,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            label: "loopback",
        }
    }

    /// Era-appropriate switched LAN: 0.3 ms, 100 Mbit/s.
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(300),
            bandwidth_bps: Some(100_000_000 / 8),
            jitter: SimDuration::from_micros(50),
            loss: 0.0,
            label: "lan",
        }
    }

    /// Campus/metro link: 2 ms, 45 Mbit/s (T3-class).
    pub fn campus() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(2),
            bandwidth_bps: Some(45_000_000 / 8),
            jitter: SimDuration::from_micros(200),
            loss: 0.0,
            label: "campus",
        }
    }

    /// Cross-country WAN (Rutgers ↔ UT Austin class): 35 ms, 10 Mbit/s.
    pub fn wan() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(35),
            bandwidth_bps: Some(10_000_000 / 8),
            jitter: SimDuration::from_millis(2),
            loss: 0.0,
            label: "wan",
        }
    }

    /// Override the propagation latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }

    /// Override the bandwidth (bytes/second).
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        self.bandwidth_bps = Some(bps);
        self
    }

    /// Override the jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Override the loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.loss = loss;
        self
    }

    /// Override the stats label.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Time to clock `bytes` onto the wire at this link's bandwidth.
    pub fn transmit_time(&self, bytes: usize) -> SimDuration {
        match self.bandwidth_bps {
            None => SimDuration::ZERO,
            Some(bps) => {
                debug_assert!(bps > 0);
                SimDuration::from_micros((bytes as u128 * 1_000_000 / bps as u128) as u64)
            }
        }
    }
}

/// Mutable per-direction link state: the transmitter and the traffic
/// counters.
#[derive(Clone, Debug)]
pub(crate) struct LinkState {
    pub spec: LinkSpec,
    /// Instant the transmitter is free again.
    pub busy_until: SimTime,
    /// Messages accepted onto the wire.
    pub msgs: u64,
    /// Payload bytes accepted onto the wire.
    pub bytes: u64,
    /// Messages dropped by the loss process.
    pub lost: u64,
    /// Messages dropped because they departed inside a partition window.
    pub partitioned: u64,
}

impl LinkState {
    pub fn new(spec: LinkSpec) -> Self {
        LinkState { spec, busy_until: SimTime::ZERO, msgs: 0, bytes: 0, lost: 0, partitioned: 0 }
    }
}

/// Read-only traffic accounting for one link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages accepted onto the wire.
    pub msgs: u64,
    /// Payload bytes accepted onto the wire.
    pub bytes: u64,
    /// Messages dropped by the loss process or a partition window.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_time_scales_with_size() {
        let spec = LinkSpec::lan(); // 12.5 MB/s
        assert_eq!(spec.transmit_time(0), SimDuration::ZERO);
        let t = spec.transmit_time(12_500_000);
        assert_eq!(t, SimDuration::from_secs(1));
        assert_eq!(spec.transmit_time(12_500), SimDuration::from_millis(1));
    }

    #[test]
    fn infinite_bandwidth_is_free() {
        let spec = LinkSpec::loopback();
        assert_eq!(spec.transmit_time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn builders_override() {
        let spec = LinkSpec::wan()
            .with_latency(SimDuration::from_millis(80))
            .with_bandwidth_bps(1_000_000)
            .with_loss(0.01)
            .with_label("transatlantic");
        assert_eq!(spec.latency, SimDuration::from_millis(80));
        assert_eq!(spec.bandwidth_bps, Some(1_000_000));
        assert_eq!(spec.label, "transatlantic");
        assert!((spec.loss - 0.01).abs() < 1e-12);
    }
}
