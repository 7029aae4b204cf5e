//! Launched environment instances with lifecycle and TEE measurement.

use crate::env::CostModel;
use crate::select::EnvironmentPlan;
use std::fmt;
use udc_crypto::attest::RootOfTrust;

/// Unique instance identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "env{}", self.0)
    }
}

/// Lifecycle state of an environment instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvState {
    /// Created but not yet started.
    Cold,
    /// Running and able to execute module code.
    Running,
    /// Stopped; resources released.
    Stopped,
}

/// A launched execution environment hosting one module (vertical
/// bundling keeps this 1:1 — Design Principle 3).
#[derive(Debug)]
pub struct Environment {
    /// Instance id.
    pub id: InstanceId,
    /// The realization plan this instance implements.
    pub plan: EnvironmentPlan,
    /// Lifecycle state.
    pub state: EnvState,
    /// Virtual time spent starting this instance (cold or warm).
    pub startup_cost_us: u64,
    /// Fencing epoch of the placement that launched this instance
    /// (0 = unfenced/legacy). Writes and relaunches present this epoch;
    /// the control plane's fence registry rejects it once the module
    /// has been re-placed, so a zombie instance on the far side of a
    /// healed partition cannot act with authority it no longer holds.
    epoch: u64,
    /// TEE root of trust, present only for enclave instances.
    rot: Option<RootOfTrust>,
}

impl Environment {
    /// Creates a cold instance. For TEE plans a fresh root of trust is
    /// fused with `device_key` so quotes can later be produced.
    pub fn new(id: InstanceId, plan: EnvironmentPlan, device_key: [u8; 32]) -> Self {
        let rot = if plan.kind.is_tee() {
            Some(RootOfTrust::new(format!("{id}"), device_key))
        } else {
            None
        };
        Self {
            id,
            plan,
            state: EnvState::Cold,
            startup_cost_us: 0,
            epoch: 0,
            rot,
        }
    }

    /// Stamps the fencing epoch this instance acts under (set by the
    /// control plane when the placement is minted, before `start`).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The fencing epoch this instance was launched under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cost model of this instance's class.
    pub fn cost_model(&self) -> CostModel {
        self.plan.kind.cost_model()
    }

    /// Starts the instance, returning the startup latency in
    /// microseconds. `warm` indicates the instance came from a warm pool.
    /// TEE instances measure the runtime and module identity into the
    /// root of trust as part of startup.
    pub fn start(&mut self, warm: bool, module_identity: &str) -> u64 {
        assert_eq!(
            self.state,
            EnvState::Cold,
            "start() requires a cold instance"
        );
        let m = self.cost_model();
        let latency = if warm {
            m.warm_start_us
        } else {
            m.cold_start_us
        };
        if let Some(rot) = &mut self.rot {
            rot.measure("boot: udc-runtime v1");
            rot.measure(&format!("load: {module_identity}"));
        }
        self.state = EnvState::Running;
        self.startup_cost_us = latency;
        latency
    }

    /// Stops the instance, returning the teardown latency.
    pub fn stop(&mut self) -> u64 {
        assert_eq!(
            self.state,
            EnvState::Running,
            "stop() requires a running instance"
        );
        self.state = EnvState::Stopped;
        self.cost_model().teardown_us
    }

    /// Effective execution time for `base_us` of work, after this
    /// environment's runtime overhead.
    pub fn effective_exec_us(&self, base_us: u64) -> u64 {
        (base_us as f64 * self.cost_model().runtime_overhead).ceil() as u64
    }

    /// Access to the TEE root of trust (None for non-TEE instances) —
    /// used by the verification service to request quotes.
    pub fn root_of_trust(&self) -> Option<&RootOfTrust> {
        self.rot.as_ref()
    }

    /// True when running.
    pub fn is_running(&self) -> bool {
        self.state == EnvState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvKind;
    use crate::select::EnvironmentPlan;

    fn plan(kind: EnvKind) -> EnvironmentPlan {
        EnvironmentPlan {
            kind,
            single_tenant: false,
            user_verifiable: kind.is_tee(),
        }
    }

    #[test]
    fn lifecycle_cold_running_stopped() {
        let mut e = Environment::new(InstanceId(0), plan(EnvKind::Container), [0u8; 32]);
        assert_eq!(e.state, EnvState::Cold);
        let cold = e.start(false, "A1");
        assert_eq!(cold, EnvKind::Container.cost_model().cold_start_us);
        assert!(e.is_running());
        let td = e.stop();
        assert_eq!(td, EnvKind::Container.cost_model().teardown_us);
        assert_eq!(e.state, EnvState::Stopped);
    }

    #[test]
    fn warm_start_cheaper() {
        let mut cold = Environment::new(InstanceId(0), plan(EnvKind::TeeEnclave), [0u8; 32]);
        let mut warm = Environment::new(InstanceId(1), plan(EnvKind::TeeEnclave), [0u8; 32]);
        assert!(warm.start(true, "A1") < cold.start(false, "A1"));
    }

    #[test]
    #[should_panic(expected = "cold instance")]
    fn double_start_panics() {
        let mut e = Environment::new(InstanceId(0), plan(EnvKind::Container), [0u8; 32]);
        e.start(false, "A1");
        e.start(false, "A1");
    }

    #[test]
    fn tee_instance_measures_module() {
        let mut e = Environment::new(InstanceId(0), plan(EnvKind::TeeEnclave), [7u8; 32]);
        assert!(e.root_of_trust().is_some());
        let before = e.root_of_trust().unwrap().measurement();
        e.start(false, "A2-cnn-inference");
        let after = e.root_of_trust().unwrap().measurement();
        assert_ne!(before, after, "startup must extend measurements");
    }

    #[test]
    fn non_tee_has_no_rot() {
        let e = Environment::new(InstanceId(0), plan(EnvKind::Unikernel), [0u8; 32]);
        assert!(e.root_of_trust().is_none());
    }

    #[test]
    fn different_modules_different_measurements() {
        let mut a = Environment::new(InstanceId(0), plan(EnvKind::TeeEnclave), [7u8; 32]);
        let mut b = Environment::new(InstanceId(1), plan(EnvKind::TeeEnclave), [7u8; 32]);
        a.start(false, "A1");
        b.start(false, "A2");
        assert_ne!(
            a.root_of_trust().unwrap().measurement(),
            b.root_of_trust().unwrap().measurement()
        );
    }

    #[test]
    fn effective_exec_applies_overhead() {
        let mut e = Environment::new(InstanceId(0), plan(EnvKind::TeeEnclave), [0u8; 32]);
        e.start(false, "A1");
        // TEE overhead is 1.25.
        assert_eq!(e.effective_exec_us(1000), 1250);
        let mut c = Environment::new(InstanceId(1), plan(EnvKind::Unikernel), [0u8; 32]);
        c.start(false, "A1");
        assert!(c.effective_exec_us(1000) < 1250);
    }
}
