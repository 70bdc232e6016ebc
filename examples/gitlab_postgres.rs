//! The paper's §V-F case study (Figure 3): GitLab with its Postgres module
//! 3-versioned behind RDDR — versions 10.7, 10.7 (filter pair) and 10.9 —
//! mitigating CVE-2019-10130 while every benign GitLab flow keeps working.
//!
//! ```text
//! cargo run --example gitlab_postgres
//! ```

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::framework::url_encode;
use rddr_repro::httpsim::gitlab::{deploy_gitlab, seed_gitlab_schema};
use rddr_repro::httpsim::HttpClient;
use rddr_repro::net::ServiceAddr;
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::pgsim::{Database, PgServer, PgVersion};
use rddr_repro::protocols::PgProtocol;
use rddr_repro::proxy::NVersion;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Cluster::new(8);

    // Three Postgres instances: buggy filter pair (10.7) + fixed (10.9),
    // behind RDDR's incoming proxy, which is what GitLab sees as "the
    // database".
    let mut postgres = NVersion::new(
        "gitlab-postgres",
        EngineConfig::builder(3)
            .filter_pair(0, 1)
            .response_deadline(Duration::from_secs(3))
            .build()?,
        Arc::new(|| Box::new(PgProtocol::new())),
    );
    for (i, version) in ["10.7", "10.7", "10.9"].into_iter().enumerate() {
        let mut db = Database::new(PgVersion::parse(version)?);
        seed_gitlab_schema(&mut db)?;
        postgres = postgres.variant(Image::new("postgres", version), Arc::new(PgServer::new(db)));
        println!("starting postgres:{version} as gitlab-postgres-{i}");
    }
    let rddr = postgres.deploy(&cluster, &ServiceAddr::new("gitlab-postgres", 5432))?;

    let gitlab = deploy_gitlab(&cluster, rddr.addr.clone())?;
    println!(
        "GitLab composite up: {} containers + RDDR\n",
        gitlab.containers.len() + 3
    );

    // Benign flows: sign in, create a project, list projects.
    let net = cluster.net();
    let mut user = HttpClient::connect(&net, &gitlab.addrs.workhorse)?;
    let page = user.get("/users/sign_in")?;
    let token = page
        .body_text()
        .split("value=\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
        .expect("authenticity token")
        .to_string();
    let welcome = user.post(
        "/users/sign_in",
        &format!("user=ada&password=pw&authenticity_token={token}"),
    )?;
    println!("sign-in: {}", welcome.body_text().trim());
    user.post("/projects", "name=n-version-everything")?;
    let projects = user.get("/projects")?;
    println!("projects page served, {} bytes", projects.body.len());

    // The exploit (Listing 2), via the assumed frontend SQL injection.
    println!("\nlaunching CVE-2019-10130 exploit ...");
    let statements = [
        "CREATE FUNCTION op_leak(int, int) RETURNS bool \
         AS 'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' \
         LANGUAGE plpgsql",
        "CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int, \
         restrict=scalarltsel)",
        "SELECT * FROM user_secrets WHERE secret_level <<< 1000",
    ];
    for (i, sql) in statements.iter().enumerate() {
        let mut attacker = HttpClient::connect(&net, &gitlab.addrs.workhorse)?;
        match attacker.get(&format!("/api/v4/sql?q={}", url_encode(sql))) {
            Ok(resp) => {
                let text = resp.body_text();
                assert!(
                    !text.contains("ROOT-ADMIN"),
                    "protected rows must never reach the attacker"
                );
                println!(
                    "  step {}: status {} ({} bytes)",
                    i + 1,
                    resp.status,
                    text.len()
                );
                if resp.status == 500 {
                    println!("  => RDDR severed the database connection: leak blocked");
                    break;
                }
            }
            Err(_) => {
                println!("  step {}: connection severed — leak blocked", i + 1);
                break;
            }
        }
    }

    // Benign traffic still works afterwards.
    let mut user = HttpClient::connect(&net, &gitlab.addrs.workhorse)?;
    let again = user.get("/projects")?;
    println!(
        "\npost-attack /projects: status {} — GitLab fully operational",
        again.status
    );
    println!("RDDR proxy stats: {:?}", rddr.proxy.stats());
    Ok(())
}
