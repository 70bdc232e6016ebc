//! Table I row 3 — CVE-2019-10130: Postgres row-level-security bypass,
//! mitigated with version diversity inside the GitLab composite (§V-F2,
//! Figure 3: two 10.7 instances as the filter pair, one fixed 10.9).

use std::sync::Arc;

use rddr_httpsim::framework::url_encode;
use rddr_httpsim::gitlab::{deploy_gitlab, seed_gitlab_schema};
use rddr_httpsim::HttpClient;
use rddr_net::ServiceAddr;
use rddr_orchestra::Image;
use rddr_pgsim::{Database, PgServer, PgVersion};
use rddr_proxy::NVersion;

use crate::report::MitigationReport;
use crate::scenarios::{config, pg, scenario_cluster};

/// Runs the scenario.
pub fn run() -> MitigationReport {
    let mut report = MitigationReport::new("CVE-2019-10130");
    let cluster = scenario_cluster();
    let proxy_addr = ServiceAddr::new("gitlab-postgres", 5432);
    let mut postgres = NVersion::new(
        "gitlab-postgres",
        config(3).filter_pair(0, 1).build().expect("static config"),
        pg(),
    )
    .instances_at(ServiceAddr::new("pg", 5432));

    // "We compose the N-versioned Postgres deployment from three instances
    // of Postgres, two at version 10.7 (buggy filter pair) and a third at
    // version 10.9 (fixed)."
    for version in ["10.7", "10.7", "10.9"] {
        let mut db = Database::new(PgVersion::parse(version).expect("static version"));
        seed_gitlab_schema(&mut db).expect("schema seeds");
        postgres = postgres.variant(Image::new("postgres", version), Arc::new(PgServer::new(db)));
    }
    let _postgres = postgres
        .deploy(&cluster, &proxy_addr)
        .expect("deployment starts");

    // GitLab itself talks to Postgres only through RDDR's incoming proxy.
    let gitlab = deploy_gitlab(&cluster, proxy_addr).expect("gitlab deploys");
    let net = cluster.net();

    // ---- benign traffic: "users can log in, create projects, view projects" --
    report.benign_ok = (|| {
        let mut client = HttpClient::connect(&net, &gitlab.addrs.workhorse).ok()?;
        let page = client.get("/users/sign_in").ok()?;
        let token = page
            .body_text()
            .split("value=\"")
            .nth(1)?
            .split('"')
            .next()?
            .to_string();
        let welcome = client
            .post(
                "/users/sign_in",
                &format!("user=dev&password=pw&authenticity_token={token}"),
            )
            .ok()?;
        if !welcome.body_text().contains("Welcome, dev!") {
            return None;
        }
        if client.post("/projects", "name=rddr-demo").ok()?.status != 201 {
            return None;
        }
        let list = client.get("/projects").ok()?;
        (list.status == 200
            && list.body_text().contains("gitlab-ce")
            && list.body_text().contains("rddr-demo"))
        .then_some(())
    })()
    .is_some();

    // ---- exploit (Listing 2), via the assumed frontend SQL injection --------
    let statements = [
        "CREATE FUNCTION op_leak(int, int) RETURNS bool \
         AS 'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' \
         LANGUAGE plpgsql",
        "CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int, \
         restrict=scalarltsel)",
        "SELECT * FROM user_secrets WHERE secret_level <<< 1000",
    ];
    let mut blocked = false;
    let mut leaked = false;
    for (step, sql) in statements.iter().enumerate() {
        let Ok(mut attacker) = HttpClient::connect(&net, &gitlab.addrs.workhorse) else {
            break;
        };
        attacker.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        match attacker.get(&format!("/api/v4/sql?q={}", url_encode(sql))) {
            Err(_) => {
                blocked = true;
                report.note(format!("severed at exploit step {}", step + 1));
                break;
            }
            Ok(resp) => {
                let text = resp.body_text();
                if text.contains("ROOT-ADMIN") || text.contains("AKIA99") {
                    leaked = true;
                    report.note("protected row contents reached the attacker");
                }
                if resp.status == 500 && text.contains("severed") {
                    blocked = true;
                    report.note(format!(
                        "backend connection severed at step {} (RDDR intervened)",
                        step + 1
                    ));
                    break;
                }
            }
        }
    }
    report.exploit_blocked = blocked;
    report.leak_reached_client = leaked;

    // "All benign GitLab functions remain fully operational" — verify again
    // after the attack.
    if report.benign_ok {
        let still_ok = (|| {
            let mut client = HttpClient::connect(&net, &gitlab.addrs.workhorse).ok()?;
            let list = client.get("/projects").ok()?;
            (list.status == 200 && list.body_text().contains("gitlab-ce")).then_some(())
        })()
        .is_some();
        if !still_ok {
            report.benign_ok = false;
            report.note("benign traffic broken after the attack");
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn cve_2019_10130_is_mitigated() {
        let report = super::run();
        assert!(report.mitigated(), "{report}");
    }
}
