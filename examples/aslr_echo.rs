//! The paper's §V-E proof of concept: RDDR + OS-generated diversity (ASLR)
//! defeat a pointer leak. Two instances of the *same* echo-server binary
//! get different address-space layouts; the buffer-overflow read leaks a
//! different pointer from each, and the Diff phase severs the connection
//! at step (1) of the exploit chain.
//!
//! ```text
//! cargo run --example aslr_echo
//! ```

use std::sync::Arc;
use std::time::Duration;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::EngineConfig;
use rddr_repro::httpsim::rest::AslrEchoService;
use rddr_repro::libsim::aslr::BUFFER_SIZE;
use rddr_repro::libsim::AslrEcho;
use rddr_repro::net::{BoxStream, Network, ServiceAddr, Stream};
use rddr_repro::orchestra::{Cluster, Image};
use rddr_repro::proxy::NVersion;

fn read_line(conn: &mut BoxStream) -> Option<String> {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) | Err(_) => {
                return (!out.is_empty()).then(|| String::from_utf8_lossy(&out).into_owned())
            }
            Ok(_) if byte[0] == b'\n' => return Some(String::from_utf8_lossy(&out).into_owned()),
            Ok(_) => out.push(byte[0]),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Show the raw leak first: what the attacker would get WITHOUT RDDR.
    let process = AslrEcho::launch(0xbeef);
    println!("single instance, no RDDR:");
    println!("  buffer at    {:#x}", process.buffer_address());
    println!("  leak target  {:#x}", process.adjacent_pointer());
    let overflow = vec![b'A'; BUFFER_SIZE + 8];
    let leaked = process.echo(&overflow);
    println!(
        "  overflow response ends with: …{}",
        String::from_utf8_lossy(&leaked[BUFFER_SIZE..])
    );
    println!("  => the attacker now knows the stack layout.\n");

    // Now the RDDR deployment: two instances, ASLR diversity only.
    let cluster = Cluster::new(4);
    let rddr = [101u64, 202]
        .into_iter()
        .fold(
            NVersion::new(
                "echo",
                EngineConfig::builder(2)
                    .response_deadline(Duration::from_secs(2))
                    .build()?,
                Arc::new(|| Box::new(LineProtocol::new())),
            ),
            |nv, seed| {
                nv.variant(
                    Image::new("echo-poc", "v1"),
                    Arc::new(AslrEchoService::launch(seed)),
                )
            },
        )
        .deploy(&cluster, &ServiceAddr::new("rddr-echo", 7))?;
    let net = cluster.net();

    println!("2-version deployment behind RDDR:");
    let mut conn = net.dial(&rddr.addr)?;
    conn.write_all(b"hello echo\n")?;
    println!("  benign echo: {:?}", read_line(&mut conn));

    let mut attacker = net.dial(&rddr.addr)?;
    attacker.write_all(&overflow)?;
    attacker.write_all(b"\n")?;
    match read_line(&mut attacker) {
        None => println!("  overflow: connection severed — pointer leak blocked"),
        Some(reply) => {
            let tail = &reply[reply.len().saturating_sub(16)..];
            assert!(
                !tail.bytes().all(|b| b.is_ascii_hexdigit()),
                "a pointer must never reach the attacker"
            );
            println!("  overflow reply carried no pointer: {reply:?}");
        }
    }
    println!("  proxy stats: {:?}", rddr.proxy.stats());
    Ok(())
}
