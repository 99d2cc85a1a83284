//! SSD embedded processor cores.
//!
//! OpenSSD firmware runs on a dual-core ARM Cortex-A9 that must execute
//! *both* routine flash-management firmware (FTL, scheduling, host
//! interface) and — under SmartSAGE — the ISP neighbor-sampling operator.
//! The paper's §VI-B analysis attributes the shrinking multi-worker
//! speedup (Fig 17) to exactly this time-sharing: "our neighbor sampling
//! operator time-shares the embedded cores with the flash management
//! firmware".
//!
//! We model the cores as a capacity-`n` [`Server`] and express the
//! firmware reservation as a *service-time inflation*: when the cores are
//! shared (HW/SW design), every unit of ISP work costs
//! `1 / (1 - firmware_share)` units of core time. The oracle design
//! (dedicated ISP cores, like NGD Newport's Cortex-A53 complex) uses an
//! inflation of 1 and typically more cores.

use smartsage_sim::{Server, SimDuration, SimTime};

/// Embedded-core complex parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreParams {
    /// Number of cores usable for ISP work.
    pub cores: usize,
    /// Fraction of each core reserved for baseline firmware duties
    /// (`0.0 <= share < 1.0`). Zero models dedicated ISP cores.
    pub firmware_share: f64,
    /// Relative speed of one embedded core vs. the host CPU core
    /// (a Cortex-A9 retires the sampling inner loop several times slower
    /// than a Xeon). Service times for "host-equivalent work" are scaled
    /// by `1 / speed_vs_host`.
    pub speed_vs_host: f64,
}

impl Default for CoreParams {
    /// OpenSSD-like defaults: 2 shared cores at ~1/4 host speed with 30%
    /// of cycles reserved for firmware.
    fn default() -> Self {
        CoreParams {
            cores: 2,
            firmware_share: 0.30,
            speed_vs_host: 0.25,
        }
    }
}

/// The embedded core complex.
#[derive(Debug, Clone)]
pub struct EmbeddedCores {
    params: CoreParams,
    server: Server,
}

impl EmbeddedCores {
    /// Creates the core complex.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, `firmware_share` is outside `[0, 1)`, or
    /// `speed_vs_host` is not positive.
    pub fn new(params: CoreParams) -> Self {
        assert!(params.cores > 0, "must have at least one core");
        assert!(
            (0.0..1.0).contains(&params.firmware_share),
            "firmware share must be in [0, 1)"
        );
        assert!(params.speed_vs_host > 0.0, "core speed must be positive");
        let server = Server::new(params.cores);
        EmbeddedCores { params, server }
    }

    /// The core parameters.
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    /// Converts "host-equivalent work" into embedded-core service time,
    /// applying both the speed ratio and the firmware-share inflation.
    pub fn service_time(&self, host_equivalent_work: SimDuration) -> SimDuration {
        let inflation = 1.0 / ((1.0 - self.params.firmware_share) * self.params.speed_vs_host);
        host_equivalent_work.mul_f64(inflation)
    }

    /// Executes `host_equivalent_work` arriving at `at` on the core
    /// complex; returns `(start, end)`.
    pub fn exec(&mut self, at: SimTime, host_equivalent_work: SimDuration) -> (SimTime, SimTime) {
        let service = self.service_time(host_equivalent_work);
        self.server.schedule(at, service)
    }

    /// Executes pre-scaled embedded-core service time (no conversion).
    pub fn exec_raw(&mut self, at: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        self.server.schedule(at, service)
    }

    /// Core utilization so far.
    pub fn utilization(&self) -> f64 {
        self.server.utilization()
    }

    /// Total core-busy time so far.
    pub fn busy_time(&self) -> SimDuration {
        self.server.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn service_time_applies_speed_and_share() {
        let cores = EmbeddedCores::new(CoreParams {
            cores: 2,
            firmware_share: 0.5,
            speed_vs_host: 0.25,
        });
        // 1us of host work => 1 / (0.5 * 0.25) = 8us of core time.
        assert_eq!(cores.service_time(us(1)), us(8));
    }

    #[test]
    fn dedicated_cores_have_no_share_inflation() {
        let cores = EmbeddedCores::new(CoreParams {
            cores: 4,
            firmware_share: 0.0,
            speed_vs_host: 0.5,
        });
        assert_eq!(cores.service_time(us(1)), us(2));
    }

    #[test]
    fn concurrent_work_saturates_cores() {
        let mut cores = EmbeddedCores::new(CoreParams {
            cores: 2,
            firmware_share: 0.0,
            speed_vs_host: 1.0,
        });
        let ends: Vec<SimTime> = (0..4)
            .map(|_| cores.exec(SimTime::ZERO, us(10)).1)
            .collect();
        // Two run immediately, two queue.
        assert_eq!(ends[0], SimTime::ZERO + us(10));
        assert_eq!(ends[1], SimTime::ZERO + us(10));
        assert_eq!(ends[2], SimTime::ZERO + us(20));
        assert_eq!(ends[3], SimTime::ZERO + us(20));
        assert!((cores.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exec_raw_skips_conversion() {
        let mut cores = EmbeddedCores::new(CoreParams::default());
        let (_, end) = cores.exec_raw(SimTime::ZERO, us(7));
        assert_eq!(end, SimTime::ZERO + us(7));
    }

    #[test]
    #[should_panic(expected = "firmware share")]
    fn full_share_is_rejected() {
        EmbeddedCores::new(CoreParams {
            cores: 1,
            firmware_share: 1.0,
            speed_vs_host: 1.0,
        });
    }
}
