//! Table I row 10 — the ASLR proof of concept (§V-E): two instances of the
//! same echo-server binary, diversified only by the OS's address-space
//! randomization. The overflow's pointer leak differs per instance, so the
//! Diff phase catches it.

use std::sync::Arc;

use rddr_httpsim::rest::AslrEchoService;
use rddr_libsim::aslr::BUFFER_SIZE;
use rddr_net::{Network, ServiceAddr, Stream};
use rddr_orchestra::Image;
use rddr_proxy::NVersion;

use crate::report::MitigationReport;
use crate::scenarios::{config, line, scenario_cluster};

fn read_line(conn: &mut rddr_net::BoxStream) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) | Err(_) => return if out.is_empty() { None } else { Some(out) },
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Some(out);
                }
                out.push(byte[0]);
            }
        }
    }
}

/// Runs the scenario.
pub fn run() -> MitigationReport {
    let mut report = MitigationReport::new("ASLR-POC");
    let cluster = scenario_cluster();
    // "When two instances of the same binary with ASLR are N-versioned,
    // each has a unique address space." Seeds model the kernel's entropy.
    let proxy_addr = ServiceAddr::new("rddr-echo", 7);
    let _echo = NVersion::new("echo", config(2).build().expect("static config"), line())
        .variant(
            Image::new("echo-poc", "v1"),
            Arc::new(AslrEchoService::launch(0x0051_eed1)),
        )
        .variant(
            Image::new("echo-poc", "v1"),
            Arc::new(AslrEchoService::launch(0x0051_eed2)),
        )
        .instances_at(ServiceAddr::new("echo", 7000))
        .deploy(&cluster, &proxy_addr)
        .expect("deployment starts");
    let net = cluster.net();

    // Benign echo.
    report.benign_ok = (|| {
        let mut conn = net.dial(&proxy_addr).ok()?;
        conn.write_all(b"hello aslr\n").ok()?;
        (read_line(&mut conn)? == b"hello aslr").then_some(())
    })()
    .is_some();

    // Exploit step (1): overflow to leak a pointer.
    match net.dial(&proxy_addr) {
        Err(e) => report.note(format!("attacker connect failed: {e}")),
        Ok(mut conn) => {
            let mut payload = vec![b'A'; BUFFER_SIZE + 8];
            payload.push(b'\n');
            if conn.write_all(&payload).is_err() {
                report.exploit_blocked = true;
            } else {
                match read_line(&mut conn) {
                    None => {
                        report.exploit_blocked = true;
                        report.note("connection severed before the pointer leak");
                    }
                    Some(reply) => {
                        let text = String::from_utf8_lossy(&reply);
                        let tail = &text[text.len().saturating_sub(16)..];
                        if tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()) {
                            report.leak_reached_client = true;
                            report.note(format!("pointer {tail} reached the attacker"));
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn aslr_poc_is_mitigated() {
        let report = super::run();
        assert!(report.mitigated(), "{report}");
    }
}
