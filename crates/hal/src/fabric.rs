//! The datacenter network fabric connecting disaggregated devices.
//!
//! Disaggregation trades local-bus access for network hops, so placement
//! quality (locality, §3.1) shows up as fabric traffic. The model is
//! rack-aware: same-device access is free, same-rack hops cost a small
//! RTT, cross-rack hops traverse the spine. Bandwidth is modelled as a
//! per-link serialization rate.

use crate::clock::Micros;
use crate::device::DeviceId;
use std::cell::RefCell;
use udc_telemetry::{Labels, Telemetry};

/// Fabric latency/bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// One-way latency between two devices in the same rack (ToR hop).
    pub intra_rack_latency_us: Micros,
    /// One-way latency across racks (through the spine).
    pub cross_rack_latency_us: Micros,
    /// Intra-rack link bandwidth in bytes per microsecond
    /// (12.5 * 1024 = 100 Gb/s).
    pub bandwidth_bytes_per_us: f64,
    /// Cross-rack (spine) bandwidth per flow; spines are typically
    /// oversubscribed (we default to 4:1).
    pub cross_rack_bandwidth_bytes_per_us: f64,
}

/// The fabric: device locations plus traffic accounting.
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    config: FabricConfig,
    /// `(device, rack)` sorted by device id. Not indexed by the raw id:
    /// a stray `DeviceId(u32::MAX)` would then cost gigabytes.
    locations: Vec<(DeviceId, u32)>,
    /// (bytes moved intra-rack, bytes moved cross-rack); RefCell so
    /// transfer accounting works through a shared reference.
    traffic: RefCell<Traffic>,
    /// Observability hub; disabled (no-op) unless installed via
    /// [`Fabric::set_observer`].
    obs: Telemetry,
}

#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    intra_rack_bytes: u64,
    cross_rack_bytes: u64,
    transfers: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        // 100 Gb/s links, 2 us ToR hop, 10 us spine traversal — typical
        // 2021 datacenter numbers (the relative shape is what matters).
        Self {
            intra_rack_latency_us: 2,
            cross_rack_latency_us: 10,
            bandwidth_bytes_per_us: 12.5 * 1024.0,
            cross_rack_bandwidth_bytes_per_us: 12.5 * 1024.0 / 4.0,
        }
    }
}

impl Fabric {
    /// Creates a fabric with the given parameters.
    pub fn new(config: FabricConfig) -> Self {
        Self {
            config,
            locations: Vec::new(),
            traffic: RefCell::new(Traffic::default()),
            obs: Telemetry::disabled(),
        }
    }

    /// Installs the observability hub; transfers are reported as
    /// `hal.fabric.*` counters from then on.
    pub fn set_observer(&mut self, obs: Telemetry) {
        self.obs = obs;
    }

    /// Registers a device's location, replacing any earlier one.
    pub fn place_device(&mut self, id: DeviceId, rack: u32) {
        match self.find(id) {
            Ok(i) => self.locations[i].1 = rack,
            Err(i) => self.locations.insert(i, (id, rack)),
        }
    }

    /// The rack a device sits in (None if unregistered).
    pub fn rack_of(&self, id: DeviceId) -> Option<u32> {
        self.find(id).ok().map(|i| self.locations[i].1)
    }

    fn find(&self, id: DeviceId) -> Result<usize, usize> {
        self.locations.binary_search_by_key(&id, |&(d, _)| d)
    }

    /// One-way latency between two devices, ignoring payload size.
    pub fn latency_us(&self, a: DeviceId, b: DeviceId) -> Micros {
        if a == b {
            return 0;
        }
        match (self.rack_of(a), self.rack_of(b)) {
            (Some(ra), Some(rb)) if ra == rb => self.config.intra_rack_latency_us,
            _ => self.config.cross_rack_latency_us,
        }
    }

    /// Time to move `bytes` from `a` to `b`, recording the traffic.
    /// Cross-rack flows pay the (oversubscribed) spine bandwidth.
    pub fn transfer_us(&self, a: DeviceId, b: DeviceId, bytes: u64) -> Micros {
        let latency = self.latency_us(a, b);
        if a == b {
            return 0;
        }
        let same_rack = matches!(
            (self.rack_of(a), self.rack_of(b)),
            (Some(ra), Some(rb)) if ra == rb
        );
        let bandwidth = if same_rack {
            self.config.bandwidth_bytes_per_us
        } else {
            self.config.cross_rack_bandwidth_bytes_per_us
        };
        let serialization = (bytes as f64 / bandwidth).ceil() as Micros;
        {
            let mut t = self.traffic.borrow_mut();
            t.transfers += 1;
            if same_rack {
                t.intra_rack_bytes += bytes;
            } else {
                t.cross_rack_bytes += bytes;
            }
        }
        self.obs.incr("hal.fabric.transfers", Labels::none(), 1);
        let bytes_series = if same_rack {
            "hal.fabric.intra_rack_bytes"
        } else {
            "hal.fabric.cross_rack_bytes"
        };
        self.obs.incr(bytes_series, Labels::none(), bytes);
        latency + serialization
    }

    /// Total bytes moved (intra-rack, cross-rack) — the locality metric
    /// of experiment E13.
    pub fn traffic_bytes(&self) -> (u64, u64) {
        let t = self.traffic.borrow();
        (t.intra_rack_bytes, t.cross_rack_bytes)
    }

    /// Number of transfers recorded.
    pub fn transfer_count(&self) -> u64 {
        self.traffic.borrow().transfers
    }

    /// Resets traffic counters (between experiment runs).
    pub fn reset_traffic(&self) {
        *self.traffic.borrow_mut() = Traffic::default();
    }

    /// The fabric configuration.
    pub fn config(&self) -> FabricConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        let mut f = Fabric::new(FabricConfig::default());
        f.place_device(DeviceId(0), 0);
        f.place_device(DeviceId(1), 0);
        f.place_device(DeviceId(2), 1);
        f
    }

    #[test]
    fn same_device_free() {
        let f = fabric();
        assert_eq!(f.latency_us(DeviceId(0), DeviceId(0)), 0);
        assert_eq!(f.transfer_us(DeviceId(0), DeviceId(0), 1 << 20), 0);
        assert_eq!(f.transfer_count(), 0);
    }

    #[test]
    fn intra_rack_cheaper_than_cross_rack() {
        let f = fabric();
        let intra = f.latency_us(DeviceId(0), DeviceId(1));
        let cross = f.latency_us(DeviceId(0), DeviceId(2));
        assert!(intra < cross);
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let f = fabric();
        let small = f.transfer_us(DeviceId(0), DeviceId(1), 1);
        let big = f.transfer_us(DeviceId(0), DeviceId(1), 10 << 20);
        assert!(big > small);
        // 10 MiB over 100 Gb/s ≈ 819 us.
        assert!(big > 500 && big < 2_000, "{big}");
    }

    #[test]
    fn cross_rack_pays_oversubscription() {
        let f = fabric();
        let bytes = 100 << 20;
        let intra = f.transfer_us(DeviceId(0), DeviceId(1), bytes);
        let cross = f.transfer_us(DeviceId(0), DeviceId(2), bytes);
        assert!(
            cross > 3 * intra,
            "spine is 4:1 oversubscribed: {cross} vs {intra}"
        );
    }

    #[test]
    fn traffic_accounted_by_locality() {
        let f = fabric();
        f.transfer_us(DeviceId(0), DeviceId(1), 100);
        f.transfer_us(DeviceId(0), DeviceId(2), 200);
        assert_eq!(f.traffic_bytes(), (100, 200));
        assert_eq!(f.transfer_count(), 2);
        f.reset_traffic();
        assert_eq!(f.traffic_bytes(), (0, 0));
    }

    #[test]
    fn unregistered_device_treated_as_cross_rack() {
        let f = fabric();
        assert_eq!(
            f.latency_us(DeviceId(0), DeviceId(99)),
            FabricConfig::default().cross_rack_latency_us
        );
    }
}
