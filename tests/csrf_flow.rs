//! End-to-end checks of RDDR's ephemeral-state handling (§IV-B3): CSRF
//! tokens minted per instance are captured, one is forwarded to the client,
//! the client's echo is substituted per instance, and tokens die after use.

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::{HttpClient, HttpResponse, HttpService};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image, Service};
use rddr_repro::protocols::HttpProtocol;
use rddr_repro::proxy::{NVersion, NVersionedService, ProtocolFactory};

/// A service that mints a fixed per-instance token and only accepts *its
/// own* token back — exactly the handshake that breaks naive N-versioning.
fn token_service(token: &'static str) -> Arc<dyn Service> {
    Arc::new(
        HttpService::new("form")
            .route("GET", "/form", move |_req, _ctx| {
                HttpResponse::html(format!(
                    "<form><input type=\"hidden\" name=\"t\" value=\"{token}\"></form>"
                ))
            })
            .route("POST", "/submit", move |req, _ctx| {
                let got = req.form().get("t").cloned().unwrap_or_default();
                if got == token {
                    HttpResponse::ok("accepted")
                } else {
                    HttpResponse::status(403, format!("bad token {got}"))
                }
            }),
    )
}

fn deploy(tokens: &[&'static str]) -> (Cluster, NVersionedService) {
    let cluster = Cluster::new(4);
    let config = EngineConfig::builder(tokens.len())
        .response_deadline(Duration::from_secs(2))
        .build()
        .unwrap();
    let http: ProtocolFactory = Arc::new(|| Box::new(HttpProtocol::new()));
    let rddr = tokens
        .iter()
        .fold(NVersion::new("form", config, http), |nv, token| {
            nv.variant(Image::new("form", "v1"), token_service(token))
        })
        .instances_at(ServiceAddr::new("form", 8000))
        .deploy(&cluster, &ServiceAddr::new("rddr", 80))
        .unwrap();
    (cluster, rddr)
}

#[test]
fn tokens_are_captured_and_substituted_per_instance() {
    let (cluster, rddr) = deploy(&["AAAAAAAAAA", "BBBBBBBBBB", "CCCCCCCCCC"]);
    let net = cluster.net();
    let mut client = HttpClient::connect(&net, &rddr.addr).unwrap();

    // The page is forwarded with the FIRST instance's token (the paper
    // forwards "the page sent by the first instance").
    let page = client.get("/form").unwrap();
    assert!(
        page.body_text().contains("AAAAAAAAAA"),
        "client must see instance 0's token: {}",
        page.body_text()
    );

    // Submitting that token must be accepted by ALL instances — i.e. the
    // proxy substituted B's and C's own tokens on the way in.
    let resp = client.post("/submit", "t=AAAAAAAAAA").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.body_text(), "accepted");
}

#[test]
fn without_token_capture_the_submission_would_diverge() {
    // Control experiment: short tokens (below the 10-char threshold) are
    // NOT captured, so instances B and C receive A's token and reject it —
    // RDDR then severs on the divergent 403s. This demonstrates why the
    // ephemeral-state feature exists.
    let (cluster, rddr) = deploy(&["AAAA", "BBBB", "CCCC"]);
    let net = cluster.net();
    let mut client = HttpClient::connect(&net, &rddr.addr).unwrap();
    let page = client.get("/form");
    // The page itself already diverges (3 different short tokens, no filter
    // pair, no capture) — either the page or the submit gets severed.
    let severed_early = page.is_err();
    if !severed_early {
        let submit = client.post("/submit", "t=AAAA");
        assert!(
            submit.is_err() || submit.unwrap().status == 403,
            "uncaptured tokens must not be silently accepted"
        );
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        rddr.proxy.stats().divergences >= 1,
        "divergence must be recorded"
    );
}

#[test]
fn tokens_are_single_use() {
    let (cluster, rddr) = deploy(&["AAAAAAAAAA", "BBBBBBBBBB", "CCCCCCCCCC"]);
    let net = cluster.net();
    let mut client = HttpClient::connect(&net, &rddr.addr).unwrap();
    let _page = client.get("/form").unwrap();
    assert_eq!(client.post("/submit", "t=AAAAAAAAAA").unwrap().status, 200);

    // The mapping was deleted after forwarding ("because they are
    // ephemeral, tokens are deleted after forwarding"): a replayed token is
    // forwarded verbatim, instances B/C reject it, and RDDR severs.
    let replay = client.post("/submit", "t=AAAAAAAAAA");
    assert!(
        replay.is_err() || replay.unwrap().status != 200,
        "replayed token must not be re-substituted"
    );
}
