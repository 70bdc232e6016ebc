//! Configuration-file round trip: parse an RDDR config (§IV-B1/IV-B4),
//! resolve its protocol module, start a proxy from it, and serve traffic —
//! the "operator edits a file, redeploys the proxy container" workflow.

use std::sync::Arc;

use rddr_repro::core::ConfigFile;
use rddr_repro::httpsim::{HttpClient, HttpResponse, HttpService};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::proxy::{protocol_factory, NVersion};

const CONFIG: &str = "
    # nginx version-diversity deployment (the §V-D case study)
    instances = 2
    protocol = http
    policy = block
    response_deadline_ms = 2000

    [variance]
    http:header:server *
";

fn versioned_service(version: &'static str) -> Arc<HttpService> {
    Arc::new(
        HttpService::new("api").route("GET", "/data", move |_req, _ctx| {
            HttpResponse::ok("the same payload").header("Server", version)
        }),
    )
}

#[test]
fn proxy_built_from_config_file_serves_and_applies_variance() {
    let cfg = ConfigFile::parse(CONFIG).expect("config parses");
    let protocol = protocol_factory(&cfg.protocol).expect("protocol known");

    let cluster = Cluster::new(4);
    let rddr = ["nginx/1.13.2", "nginx/1.13.4"]
        .into_iter()
        .fold(NVersion::new("api", cfg.engine, protocol), |nv, version| {
            nv.variant(Image::new("api", version), versioned_service(version))
        })
        .instances_at(ServiceAddr::new("api", 8000))
        .deploy(&cluster, &ServiceAddr::new("rddr", 80))
        .unwrap();

    // Differing Server banners are covered by the config's variance rule;
    // the identical bodies flow through.
    let net = cluster.net();
    let mut client = HttpClient::connect(&net, &rddr.addr).unwrap();
    let resp = client.get("/data").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_text(), "the same payload");
}

#[test]
fn unknown_protocol_name_is_reported() {
    assert!(protocol_factory("grpc").is_none());
    for known in ["http", "postgres", "pg", "json", "line", "raw"] {
        assert!(protocol_factory(known).is_some(), "{known}");
    }
}
