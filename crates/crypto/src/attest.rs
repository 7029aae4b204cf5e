//! Remote attestation (§4 of the paper).
//!
//! "UDC must enable users to verify that the cloud vendor is correctly
//! providing their selected features. ... We believe this can be achieved
//! through comprehensive remote attestation primitives, similar to the
//! ones available in TEEs today. ... However, many features that UDC
//! allows users to define cannot be verified with today's remote
//! attestation primitives (e.g., whether or not resources were provided
//! as specified)."
//!
//! This module implements exactly that extension: quotes carry both a
//! classic *measurement* chain (software identity, PCR-extend semantics)
//! and a set of **claims** about fulfilled UDC aspects (isolation level,
//! tenancy, provided resources), all signed by a simulated hardware root
//! of trust. The verifier trusts only the hardware key, not the
//! provider's software stack.
//!
//! The signature is `HMAC-SHA256(device_key, quote-body)`; the verifier
//! holds the per-device verification key, simulating the manufacturer
//! certificate chain of real TEEs (see DESIGN.md substitution table).

use crate::hmac::{hmac_sha256, verify_tag};
use crate::sha256::Sha256;
use std::collections::BTreeMap;
use std::fmt;

/// A PCR-like measurement register with extend semantics:
/// `new = SHA256(old || event)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementRegister {
    value: [u8; 32],
    log: Vec<String>,
}

impl Default for MeasurementRegister {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasurementRegister {
    /// Creates a register initialized to all zeros.
    pub fn new() -> Self {
        Self {
            value: [0u8; 32],
            log: Vec::new(),
        }
    }

    /// Extends the register with an event (e.g. "loaded module A2 code
    /// hash ...") and records it in the event log.
    pub fn extend(&mut self, event: &str) {
        let mut h = Sha256::new();
        h.update(&self.value);
        h.update(event.as_bytes());
        self.value = h.finalize();
        self.log.push(event.to_string());
    }

    /// Current register value.
    pub fn value(&self) -> [u8; 32] {
        self.value
    }

    /// The event log (needed by verifiers to replay the chain).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Replays an event log from scratch and returns the final value —
    /// what a verifier computes to check a quote against an expected
    /// software stack.
    pub fn replay(events: &[String]) -> [u8; 32] {
        let mut r = MeasurementRegister::new();
        for e in events {
            r.extend(e);
        }
        r.value()
    }
}

/// A signed attestation quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Identifier of the attesting device.
    pub device_id: String,
    /// Final measurement-register value.
    pub measurement: [u8; 32],
    /// The measurement event log.
    pub event_log: Vec<String>,
    /// Verifier-supplied nonce, proving freshness.
    pub nonce: [u8; 32],
    /// UDC aspect-fulfillment claims (the paper's extension beyond
    /// today's primitives), e.g. `isolation -> strongest`,
    /// `resources.cpu -> 4`.
    pub claims: BTreeMap<String, String>,
    /// HMAC signature by the device key over everything above.
    pub signature: [u8; 32],
}

fn quote_body(
    device_id: &str,
    measurement: &[u8; 32],
    event_log: &[String],
    nonce: &[u8; 32],
    claims: &BTreeMap<String, String>,
) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(device_id.as_bytes());
    body.push(0);
    body.extend_from_slice(measurement);
    body.extend_from_slice(&(event_log.len() as u64).to_be_bytes());
    for e in event_log {
        body.extend_from_slice(&(e.len() as u64).to_be_bytes());
        body.extend_from_slice(e.as_bytes());
    }
    body.extend_from_slice(nonce);
    for (k, v) in claims {
        body.extend_from_slice(&(k.len() as u64).to_be_bytes());
        body.extend_from_slice(k.as_bytes());
        body.extend_from_slice(&(v.len() as u64).to_be_bytes());
        body.extend_from_slice(v.as_bytes());
    }
    body
}

/// The simulated hardware root of trust inside one device.
///
/// Holds the fused device key (never exported) and the measurement
/// register. The provider's software can ask it to extend measurements
/// and produce quotes but cannot forge signatures for states the
/// hardware did not observe.
#[derive(Debug, Clone)]
pub struct RootOfTrust {
    device_id: String,
    key: [u8; 32],
    register: MeasurementRegister,
}

impl RootOfTrust {
    /// "Fuses" a new root of trust with the given device id and key.
    pub fn new(device_id: impl Into<String>, key: [u8; 32]) -> Self {
        Self {
            device_id: device_id.into(),
            key,
            register: MeasurementRegister::new(),
        }
    }

    /// Device identifier.
    pub fn device_id(&self) -> &str {
        &self.device_id
    }

    /// Extends the measurement register (called when code/config is
    /// loaded into the environment).
    pub fn measure(&mut self, event: &str) {
        self.register.extend(event);
    }

    /// Current measurement.
    pub fn measurement(&self) -> [u8; 32] {
        self.register.value()
    }

    /// Produces a quote over the current measurement plus UDC claims,
    /// bound to the verifier's `nonce`.
    pub fn quote(&self, nonce: [u8; 32], claims: BTreeMap<String, String>) -> Quote {
        let measurement = self.register.value();
        let event_log = self.register.log().to_vec();
        let body = quote_body(&self.device_id, &measurement, &event_log, &nonce, &claims);
        let signature = hmac_sha256(&self.key, &body);
        Quote {
            device_id: self.device_id.clone(),
            measurement,
            event_log,
            nonce,
            claims,
            signature,
        }
    }

    /// Resets the measurement register (device reprovisioning).
    pub fn reset(&mut self) {
        self.register = MeasurementRegister::new();
    }
}

/// Attestation failures, ordered by how early in verification they occur.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestError {
    /// The verifier has no key for this device (unknown hardware).
    UnknownDevice(String),
    /// The signature did not verify: quote forged or tampered.
    BadSignature,
    /// The nonce does not match the challenge: stale or replayed quote.
    StaleNonce,
    /// The event log does not replay to the quoted measurement.
    InconsistentLog,
    /// The measurement differs from the policy's expectation: wrong or
    /// modified software stack.
    WrongMeasurement {
        /// What the policy expected.
        expected: [u8; 32],
        /// What the quote contained.
        actual: [u8; 32],
    },
    /// A required claim is missing or has the wrong value: an aspect the
    /// user defined was not fulfilled as specified.
    ClaimMismatch {
        /// Claim key.
        key: String,
        /// Required value.
        required: String,
        /// Value found in the quote (None = absent).
        found: Option<String>,
    },
}

impl fmt::Display for AttestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestError::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            AttestError::BadSignature => f.write_str("quote signature invalid"),
            AttestError::StaleNonce => f.write_str("quote nonce stale or replayed"),
            AttestError::InconsistentLog => {
                f.write_str("event log does not replay to quoted measurement")
            }
            AttestError::WrongMeasurement { .. } => {
                f.write_str("measurement does not match expected software stack")
            }
            AttestError::ClaimMismatch {
                key,
                required,
                found,
            } => write!(
                f,
                "claim `{key}` mismatch: required `{required}`, found {found:?}"
            ),
        }
    }
}

impl std::error::Error for AttestError {}

/// What a user requires a quote to demonstrate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttestationPolicy {
    /// Expected final measurement (None = any software stack accepted,
    /// only claims are checked).
    pub expected_measurement: Option<[u8; 32]>,
    /// Claims that must be present with exactly these values.
    pub required_claims: BTreeMap<String, String>,
}

impl AttestationPolicy {
    /// Policy requiring a specific measurement.
    pub fn measurement(m: [u8; 32]) -> Self {
        Self {
            expected_measurement: Some(m),
            required_claims: BTreeMap::new(),
        }
    }

    /// Builder-style: adds a required claim.
    pub fn require(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.required_claims.insert(key.into(), value.into());
        self
    }
}

/// User-side verifier holding trusted device keys.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    device_keys: BTreeMap<String, [u8; 32]>,
}

impl Verifier {
    /// Creates an empty verifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trusted device verification key (simulating the
    /// hardware manufacturer's certificate chain).
    pub fn trust_device(&mut self, device_id: impl Into<String>, key: [u8; 32]) {
        self.device_keys.insert(device_id.into(), key);
    }

    /// Verifies a quote against a challenge nonce and a policy.
    ///
    /// Checks, in order: device known → signature valid → nonce fresh →
    /// event log consistent → measurement as expected → claims satisfied.
    pub fn verify(
        &self,
        quote: &Quote,
        challenge_nonce: &[u8; 32],
        policy: &AttestationPolicy,
    ) -> Result<(), AttestError> {
        let key = self
            .device_keys
            .get(&quote.device_id)
            .ok_or_else(|| AttestError::UnknownDevice(quote.device_id.clone()))?;
        let body = quote_body(
            &quote.device_id,
            &quote.measurement,
            &quote.event_log,
            &quote.nonce,
            &quote.claims,
        );
        let expected_sig = hmac_sha256(key, &body);
        if !verify_tag(&expected_sig, &quote.signature) {
            return Err(AttestError::BadSignature);
        }
        if &quote.nonce != challenge_nonce {
            return Err(AttestError::StaleNonce);
        }
        if MeasurementRegister::replay(&quote.event_log) != quote.measurement {
            return Err(AttestError::InconsistentLog);
        }
        if let Some(expected) = policy.expected_measurement {
            if expected != quote.measurement {
                return Err(AttestError::WrongMeasurement {
                    expected,
                    actual: quote.measurement,
                });
            }
        }
        for (k, required) in &policy.required_claims {
            match quote.claims.get(k) {
                Some(v) if v == required => {}
                found => {
                    return Err(AttestError::ClaimMismatch {
                        key: k.clone(),
                        required: required.clone(),
                        found: found.cloned(),
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RootOfTrust, Verifier) {
        let key = [0x42u8; 32];
        let rot = RootOfTrust::new("dev0", key);
        let mut v = Verifier::new();
        v.trust_device("dev0", key);
        (rot, v)
    }

    fn claims(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn honest_quote_verifies() {
        let (mut rot, v) = setup();
        rot.measure("boot: udc-runtime v1");
        rot.measure("load: module A2");
        let nonce = [7u8; 32];
        let q = rot.quote(nonce, claims(&[("isolation", "strongest")]));
        let policy =
            AttestationPolicy::measurement(rot.measurement()).require("isolation", "strongest");
        v.verify(&q, &nonce, &policy).unwrap();
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut rot, v) = setup();
        rot.measure("boot");
        let nonce = [1u8; 32];
        let mut q = rot.quote(nonce, claims(&[]));
        q.signature[0] ^= 1;
        assert_eq!(
            v.verify(&q, &nonce, &AttestationPolicy::default()),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn tampered_claims_break_signature() {
        let (mut rot, v) = setup();
        rot.measure("boot");
        let nonce = [1u8; 32];
        let mut q = rot.quote(nonce, claims(&[("tenancy", "shared")]));
        // Provider edits the claim after signing.
        q.claims.insert("tenancy".into(), "single_tenant".into());
        assert_eq!(
            v.verify(&q, &nonce, &AttestationPolicy::default()),
            Err(AttestError::BadSignature)
        );
    }

    #[test]
    fn stale_nonce_rejected() {
        let (mut rot, v) = setup();
        rot.measure("boot");
        let q = rot.quote([1u8; 32], claims(&[]));
        assert_eq!(
            v.verify(&q, &[2u8; 32], &AttestationPolicy::default()),
            Err(AttestError::StaleNonce)
        );
    }

    #[test]
    fn unknown_device_rejected() {
        let key = [9u8; 32];
        let mut rot = RootOfTrust::new("rogue", key);
        rot.measure("boot");
        let v = Verifier::new();
        let nonce = [0u8; 32];
        let q = rot.quote(nonce, claims(&[]));
        assert!(matches!(
            v.verify(&q, &nonce, &AttestationPolicy::default()),
            Err(AttestError::UnknownDevice(_))
        ));
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (mut rot, v) = setup();
        rot.measure("boot: evil runtime");
        let nonce = [3u8; 32];
        let q = rot.quote(nonce, claims(&[]));
        let expected = MeasurementRegister::replay(&["boot: udc-runtime v1".to_string()]);
        let policy = AttestationPolicy::measurement(expected);
        assert!(matches!(
            v.verify(&q, &nonce, &policy),
            Err(AttestError::WrongMeasurement { .. })
        ));
    }

    #[test]
    fn missing_claim_rejected() {
        let (mut rot, v) = setup();
        rot.measure("boot");
        let nonce = [4u8; 32];
        let q = rot.quote(nonce, claims(&[]));
        let policy = AttestationPolicy::default().require("resources.gpu", "1");
        assert!(matches!(
            v.verify(&q, &nonce, &policy),
            Err(AttestError::ClaimMismatch { .. })
        ));
    }

    #[test]
    fn wrong_claim_value_rejected() {
        let (mut rot, v) = setup();
        rot.measure("boot");
        let nonce = [5u8; 32];
        let q = rot.quote(nonce, claims(&[("resources.cpu", "2")]));
        let policy = AttestationPolicy::default().require("resources.cpu", "4");
        match v.verify(&q, &nonce, &policy) {
            Err(AttestError::ClaimMismatch { found, .. }) => {
                assert_eq!(found, Some("2".to_string()));
            }
            other => panic!("expected claim mismatch, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_log_rejected() {
        let (mut rot, v) = setup();
        rot.measure("boot");
        let nonce = [6u8; 32];
        let mut q = rot.quote(nonce, claims(&[]));
        // Signature covers the log, so tamper with both consistently is
        // impossible without the key; here we only check the replay gate
        // by re-signing with the real key is unavailable — mutate log and
        // expect BadSignature (covers the log), so instead verify replay
        // detection directly.
        q.event_log.push("load: extra".into());
        let res = v.verify(&q, &nonce, &AttestationPolicy::default());
        assert!(res == Err(AttestError::BadSignature) || res == Err(AttestError::InconsistentLog));
    }

    #[test]
    fn measurement_register_order_sensitive() {
        let a = MeasurementRegister::replay(&["x".into(), "y".into()]);
        let b = MeasurementRegister::replay(&["y".into(), "x".into()]);
        assert_ne!(a, b);
    }

    #[test]
    fn register_reset_clears_state() {
        let mut rot = RootOfTrust::new("d", [0u8; 32]);
        rot.measure("boot");
        assert_ne!(rot.measurement(), [0u8; 32]);
        rot.reset();
        assert_eq!(rot.measurement(), MeasurementRegister::new().value());
    }
}
