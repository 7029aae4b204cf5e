//! Cross-crate security tests: data protection on the wire, attestation
//! against a cheating provider, and conflict policies at the cloud
//! boundary.

use std::collections::BTreeMap;
use udc::core::{check_quote, policy_for_module, CloudConfig, ModuleVerification, UdcCloud};
use udc::crypto::aead::{open, seal, Key, Nonce};
use udc::crypto::attest::{RootOfTrust, Verifier};
use udc::crypto::{derive_key, MerkleTree, ReplayGuard};
use udc::spec::prelude::*;

#[test]
fn protected_pipeline_data_actually_encrypted() {
    // Build the exact flow UDC runs: a data module's bytes sealed for an
    // accessor, transported, opened — and tamper-evident in between.
    let tenant_secret = b"hospital-master-key";
    let key = Key::derive(tenant_secret, b"S1");
    let record = b"patient 4711: prior diagnosis ...";
    let boxed = seal(&key, Nonce::from_sequence(1), b"to:A3", record);
    assert_ne!(
        boxed.ciphertext.as_slice(),
        record.as_slice(),
        "ciphertext differs"
    );

    // In-flight tamper is detected.
    let mut tampered = boxed.clone();
    tampered.ciphertext[5] ^= 1;
    assert!(open(&key, b"to:A3", &tampered).is_err());

    // Wrong destination (AAD) is detected — a record sealed for A3
    // cannot be fed to B2.
    assert!(open(&key, b"to:B2", &boxed).is_err());

    // The legitimate accessor reads it.
    assert_eq!(open(&key, b"to:A3", &boxed).unwrap(), record);
}

#[test]
fn replay_protection_on_module_channels() {
    let mut guard = ReplayGuard::new();
    guard.check(1).unwrap();
    guard.check(2).unwrap();
    assert!(guard.check(2).is_err(), "replayed message rejected");
    assert!(guard.check(1).is_err(), "stale message rejected");
    guard.check(10).unwrap();
}

#[test]
fn integrity_protected_storage_detects_provider_tamper() {
    // S4 (integrity only): Merkle root held by the tenant; the provider
    // stores the chunks.
    let chunks: Vec<Vec<u8>> = (0..64)
        .map(|i| format!("record-{i}").into_bytes())
        .collect();
    let tree = MerkleTree::build(&chunks).unwrap();
    let root = tree.root(); // Tenant-side.

    // Honest fetch verifies.
    let proof = tree.prove(17).unwrap();
    assert!(MerkleTree::verify(&root, &chunks[17], &proof));
    // Provider substitutes a record: caught.
    assert!(!MerkleTree::verify(&root, b"record-FORGED", &proof));
}

#[test]
fn cheating_provider_fails_deployment_verification() {
    // An end-to-end cheat: the quote claims fewer resources than the
    // user defined. Classic attestation passes (software is genuine);
    // the UDC resource claim catches it.
    let device_key = derive_key(b"root", b"device", b"d0");
    let mut rot = RootOfTrust::new("d0", device_key);
    rot.measure("boot: udc-runtime v1");
    rot.measure("load: A1@deadbeef");
    let mut verifier = Verifier::new();
    verifier.trust_device("d0", device_key);
    let nonce = [3u8; 32];
    let mut claims = BTreeMap::new();
    claims.insert("isolation".to_string(), "strongest".to_string());
    claims.insert("tenancy".to_string(), "single_tenant".to_string());
    claims.insert("resources.cpu".to_string(), "2".to_string()); // User asked for 4.
    let quote = rot.quote(nonce, claims);
    let policy = policy_for_module(
        &[
            "boot: udc-runtime v1".to_string(),
            "load: A1@deadbeef".to_string(),
        ],
        "strongest",
        true,
        &[("cpu".to_string(), 4)],
    );
    match check_quote(&verifier, &quote, &nonce, &policy) {
        ModuleVerification::Failed(msg) => assert!(msg.contains("resources.cpu"), "{msg}"),
        other => panic!("cheat must be caught, got {other:?}"),
    }
}

#[test]
fn verification_policy_matrix_matches_isolation_levels() {
    // Strong/strongest are user-verifiable; medium/weak require trust —
    // exactly §3.3's taxonomy, end to end through the cloud.
    let mut app = AppSpec::new("mix");
    for (name, level) in [
        ("weak", IsolationLevel::Weak),
        ("medium", IsolationLevel::Medium),
        ("strong", IsolationLevel::Strong),
        ("strongest", IsolationLevel::Strongest),
    ] {
        app.add_task(
            TaskSpec::new(name)
                .with_resource(ResourceAspect::default().with_demand(ResourceKind::Cpu, 1))
                .with_exec_env(ExecEnvAspect::isolation(level)),
        );
    }
    let mut cloud = UdcCloud::new(CloudConfig::default());
    let dep = cloud.submit(&app).expect("places");
    let report = cloud.verify_deployment(&dep);
    assert_eq!(report.modules["weak"], ModuleVerification::NotVerifiable);
    assert_eq!(report.modules["medium"], ModuleVerification::NotVerifiable);
    assert_eq!(report.modules["strong"], ModuleVerification::Verified);
    assert_eq!(report.modules["strongest"], ModuleVerification::Verified);
}

#[test]
fn conflicting_app_rejected_under_error_policy_accepted_under_strictest() {
    let mut app = AppSpec::new("conflict");
    app.add_task(TaskSpec::new("W"));
    app.add_task(TaskSpec::new("R"));
    app.add_data(DataSpec::new("D").with_bytes(1024));
    app.add_access_with("W", "D", Some(ConsistencyLevel::Linearizable), None)
        .unwrap();
    app.add_access_with("R", "D", Some(ConsistencyLevel::Eventual), None)
        .unwrap();

    let mut strict_cloud = UdcCloud::new(CloudConfig {
        conflict_policy: ConflictPolicy::Error,
        ..Default::default()
    });
    assert!(strict_cloud.submit(&app).is_err());

    let mut lenient_cloud = UdcCloud::new(CloudConfig::default());
    let dep = lenient_cloud.submit(&app).expect("strictest-wins resolves");
    let d = dep.ir.app.module(&"D".into()).unwrap();
    assert_eq!(
        d.dist.consistency,
        Some(ConsistencyLevel::Linearizable),
        "the data module was upgraded to the strictest requirement"
    );
}
