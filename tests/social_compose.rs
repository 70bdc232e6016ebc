//! Both proxies composed in a non-database setting: the Figure 1 social
//! network's Compose-Post service, 3-versioned, writing to the shared
//! post-storage service through an RDDR **outgoing** proxy while clients
//! arrive through the **incoming** proxy — the full Figure 2 schematic.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::{HttpClient, HttpRequest, HttpResponse, HttpService};
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, ContainerHandle, Image, Service, ServiceCtx};
use rddr_repro::protocols::HttpProtocol;
use rddr_repro::proxy::{NVersion, NVersionedService, OutgoingProxy, ProtocolFactory};

fn http() -> ProtocolFactory {
    Arc::new(|| Box::new(HttpProtocol::new()))
}

/// The shared post-storage service: appends posts, lists them.
fn post_storage(store: Arc<Mutex<Vec<String>>>) -> HttpService {
    let store_get = Arc::clone(&store);
    HttpService::new("post-storage")
        .route("POST", "/store", move |req: &HttpRequest, _ctx| {
            store.lock().push(req.body_text());
            HttpResponse::status(201, "stored")
        })
        .route("GET", "/posts", move |_req, _ctx| {
            HttpResponse::ok(store_get.lock().join("\n"))
        })
}

/// One Compose-Post variant: formats the post, then persists it via the
/// outgoing proxy. `style` is the implementation difference; `inject_leak`
/// models a buggy variant that appends private data to the stored post.
struct ComposePost {
    storage: ServiceAddr,
    inject_leak: bool,
}

impl Service for ComposePost {
    fn name(&self) -> &str {
        "compose-post"
    }

    fn handle(&self, mut conn: rddr_repro::net::BoxStream, ctx: &ServiceCtx) {
        use rddr_repro::net::Stream as _;
        let mut buf = Vec::new();
        loop {
            let Ok(Some((req, _))) =
                rddr_repro::httpsim::framework::read_request(&mut conn, &mut buf)
            else {
                return;
            };
            let response = if req.method == "POST" && req.path == "/compose" {
                let text = req.body_text();
                let mut stored = format!("post: {text}");
                if self.inject_leak && text.contains("trigger") {
                    stored.push_str(" [PRIVATE-DM-DUMP]");
                }
                // Persist through the outgoing proxy.
                let ok = (|| {
                    let mut storage = HttpClient::connect(ctx.net.as_ref(), &self.storage).ok()?;
                    let resp = storage.post("/store", &stored).ok()?;
                    (resp.status == 201).then_some(())
                })()
                .is_some();
                if ok {
                    HttpResponse::status(201, "composed")
                } else {
                    HttpResponse::status(500, "storage unavailable")
                }
            } else {
                HttpResponse::status(404, "not found")
            };
            if conn.write_all(&response.to_bytes()).is_err() {
                return;
            }
        }
    }
}

/// Storage, its outgoing proxy and the 3-versioned Compose-Post service,
/// torn down front to back on drop.
struct Deployment {
    cluster: Cluster,
    store: Arc<Mutex<Vec<String>>>,
    compose: NVersionedService,
    _outgoing: OutgoingProxy,
    _storage: ContainerHandle,
}

fn deploy(inject_leak_in_one: bool) -> Deployment {
    let cluster = Cluster::new(8);
    let store = Arc::new(Mutex::new(Vec::new()));
    let config = || {
        EngineConfig::builder(3)
            .response_deadline(Duration::from_secs(2))
            .build()
            .unwrap()
    };

    // Shared storage + outgoing proxy in front of it.
    let storage = cluster
        .run_container(
            "post-storage-0",
            Image::new("post-storage", "v1"),
            &ServiceAddr::new("post-storage", 9500),
            Arc::new(post_storage(Arc::clone(&store))),
        )
        .unwrap();
    let out_addr = ServiceAddr::new("rddr-out", 9500);
    let outgoing = OutgoingProxy::start(
        Arc::new(cluster.net()),
        &out_addr,
        ServiceAddr::new("post-storage", 9500),
        config(),
        http(),
    )
    .unwrap();

    // Three Compose-Post variants + incoming proxy.
    let compose = (0..3)
        .fold(NVersion::new("compose-post", config(), http()), |nv, i| {
            nv.variant(
                Image::new("compose-post", format!("v{}", i + 1)),
                Arc::new(ComposePost {
                    storage: out_addr.clone(),
                    inject_leak: inject_leak_in_one && i == 2,
                }),
            )
        })
        .instances_at(ServiceAddr::new("compose-post", 9001))
        .deploy(&cluster, &ServiceAddr::new("rddr-in", 80))
        .unwrap();
    Deployment {
        cluster,
        store,
        compose,
        _outgoing: outgoing,
        _storage: storage,
    }
}

#[test]
fn benign_posts_are_stored_exactly_once() {
    let dep = deploy(false);
    let net = dep.cluster.net();
    let mut client = HttpClient::connect(&net, &dep.compose.addr).unwrap();
    for i in 0..3 {
        let resp = client.post("/compose", &format!("hello {i}")).unwrap();
        assert_eq!(resp.status, 201);
    }
    let posts = dep.store.lock().clone();
    assert_eq!(
        posts,
        vec!["post: hello 0", "post: hello 1", "post: hello 2"],
        "3 instances must merge to exactly one stored copy per post"
    );
}

#[test]
fn leaky_variant_is_caught_by_the_outgoing_proxy() {
    let dep = deploy(true);
    let net = dep.cluster.net();
    let mut client = HttpClient::connect(&net, &dep.compose.addr).unwrap();
    // A benign post first.
    assert_eq!(client.post("/compose", "benign words").unwrap().status, 201);
    // The triggering post makes variant 2's stored request diverge; the
    // outgoing proxy severs before anything reaches storage.
    let resp = client.post("/compose", "please trigger the bug");
    match resp {
        Err(_) => {}
        Ok(r) => assert_ne!(r.status, 201, "diverging compose must not succeed"),
    }
    let posts = dep.store.lock().clone();
    assert_eq!(
        posts.len(),
        1,
        "only the benign post may be stored: {posts:?}"
    );
    assert!(
        posts.iter().all(|p| !p.contains("PRIVATE-DM-DUMP")),
        "the private data must never reach storage"
    );
}
