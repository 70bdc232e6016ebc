//! The flip side of N-versioning (§II, citing Knight & Leveson): with **no
//! diversity** — every instance sharing the same bug — the instances leak
//! *identically*, RDDR sees unanimity, and the attack succeeds. "The attack
//! surface of the system is the intersection of the attack surfaces of all
//! instances." This test pins that honest negative behaviour.

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::{HttpClient, NginxSim, NginxVersion};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::protocols::HttpProtocol;
use rddr_repro::proxy::{NVersion, NVersionedService, ProtocolFactory};

/// nginx at each of `versions` behind RDDR, every instance serving `/f`
/// next to the same cache secret.
fn deploy(cluster: &Cluster, versions: &[&str], config: EngineConfig) -> NVersionedService {
    let http: ProtocolFactory = Arc::new(|| Box::new(HttpProtocol::new()));
    versions
        .iter()
        .fold(NVersion::new("nginx", config, http), |nv, version| {
            let server = NginxSim::file_server(NginxVersion::parse(version));
            server.publish("/f", b"doc".to_vec(), b"SHARED-SECRET".to_vec());
            nv.variant(Image::new("nginx", *version), Arc::new(server))
        })
        .instances_at(ServiceAddr::new("nginx", 8000))
        .deploy(cluster, &ServiceAddr::new("rddr", 80))
        .unwrap()
}

#[test]
fn identical_vulnerable_instances_leak_in_unison() {
    let cluster = Cluster::new(4);
    // Both instances run the SAME vulnerable version with the SAME adjacent
    // cache contents — zero diversity.
    let rddr = deploy(
        &cluster,
        &["1.13.2", "1.13.2"],
        EngineConfig::builder(2)
            .response_deadline(Duration::from_secs(2))
            .build()
            .unwrap(),
    );

    let net = cluster.net();
    let mut attacker = HttpClient::connect(&net, &rddr.addr).unwrap();
    attacker
        .send_raw(b"GET /f HTTP/1.1\r\nHost: n\r\nRange: bytes=-9223372036854775608\r\n\r\n")
        .unwrap();
    let resp = attacker.read_response().unwrap();
    // Unanimous leak: RDDR forwards it — N-versioning is only as strong as
    // the diversity behind it.
    assert_eq!(resp.status, 206);
    assert!(
        resp.body_text().contains("SHARED-SECRET"),
        "a common-mode bug must pass RDDR undetected (by design)"
    );
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(rddr.proxy.stats().divergences, 0);
}

#[test]
fn adding_one_patched_instance_restores_the_defence() {
    // Same deployment plus a third, patched instance: the intersection of
    // attack surfaces shrinks and the leak is caught again.
    let cluster = Cluster::new(4);
    let rddr = deploy(
        &cluster,
        &["1.13.2", "1.13.2", "1.13.4"],
        EngineConfig::builder(3)
            .filter_pair(0, 1)
            .response_deadline(Duration::from_secs(2))
            .build()
            .unwrap(),
    );

    let net = cluster.net();
    let mut attacker = HttpClient::connect(&net, &rddr.addr).unwrap();
    attacker
        .send_raw(b"GET /f HTTP/1.1\r\nHost: n\r\nRange: bytes=-9223372036854775608\r\n\r\n")
        .unwrap();
    let blocked = match attacker.read_response() {
        Err(_) => true,
        Ok(resp) => resp.status == 403 && !resp.body_text().contains("SHARED-SECRET"),
    };
    assert!(blocked, "one diverse instance is enough to catch the leak");
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(rddr.proxy.stats().divergences, 1);
}
