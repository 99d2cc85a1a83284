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
//! firmware reservation as a *service-time inflation*, applied by
//! [`EmbeddedCores::exec`]: when the cores are shared (HW/SW design),
//! every unit of ISP work costs `1 / (1 - firmware_share)` units of core
//! time. The oracle design (dedicated ISP cores, like NGD Newport's
//! Cortex-A53 complex) has a share of zero, so no inflation, and
//! typically more cores. Firmware's own duties (command decode, block
//! I/O handling) run uninflated through [`EmbeddedCores::exec_raw`].

use smartsage_sim::{Server, SimDuration, SimTime};

/// Embedded-core complex parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreParams {
    /// Number of cores usable for ISP work.
    pub cores: usize,
    /// Fraction of each core reserved for baseline firmware duties
    /// (`0.0 <= share < 1.0`). Zero models dedicated ISP cores.
    pub firmware_share: f64,
}

impl Default for CoreParams {
    /// OpenSSD-like defaults: 2 shared cores with 30% of cycles reserved
    /// for firmware.
    fn default() -> Self {
        CoreParams {
            cores: 2,
            firmware_share: 0.30,
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
    /// Panics if `cores == 0` or `firmware_share` is outside `[0, 1)`.
    pub fn new(params: CoreParams) -> Self {
        assert!(params.cores > 0, "must have at least one core");
        assert!(
            (0.0..1.0).contains(&params.firmware_share),
            "firmware share must be in [0, 1)"
        );
        let server = Server::new(params.cores);
        EmbeddedCores { params, server }
    }

    /// Executes ISP work `core_work` arriving at `at` on the core
    /// complex; returns `(start, end)`. Every cycle of ISP work displaces
    /// firmware duties, so it is inflated by `1 / (1 - firmware_share)`
    /// (paper §VI-B); dedicated cores (share zero) run it as is.
    pub fn exec(&mut self, at: SimTime, core_work: SimDuration) -> (SimTime, SimTime) {
        let share = self.params.firmware_share;
        self.server
            .schedule(at, core_work.mul_f64(1.0 / (1.0 - share)))
    }

    /// Executes firmware service time as given (no inflation).
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
    fn exec_inflates_work_by_the_firmware_share() {
        let mut cores = EmbeddedCores::new(CoreParams {
            cores: 2,
            firmware_share: 0.5,
        });
        // 1us of ISP work => 1 / 0.5 = 2us of core time.
        assert_eq!(cores.exec(SimTime::ZERO, us(1)).1, SimTime::ZERO + us(2));
    }

    #[test]
    fn dedicated_cores_have_no_share_inflation() {
        let mut cores = EmbeddedCores::new(CoreParams {
            cores: 4,
            firmware_share: 0.0,
        });
        assert_eq!(cores.exec(SimTime::ZERO, us(1)).1, SimTime::ZERO + us(1));
    }

    #[test]
    fn concurrent_work_saturates_cores() {
        let mut cores = EmbeddedCores::new(CoreParams {
            cores: 2,
            firmware_share: 0.0,
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
        });
    }
}
