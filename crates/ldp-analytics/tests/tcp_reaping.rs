//! `TcpReportServer` holds one thread per *live* connection: a long run of
//! short connections must not grow the process, however many it serves.
//!
//! The only test in its own binary, because it reads process-wide
//! figures from `/proc/self/status`.

#![cfg(target_os = "linux")]

use std::io::Read;
use std::net::TcpStream;

use ldp_analytics::service::WireMessage;
use ldp_analytics::transport::{NetConfig, ServerConfig, TcpReportServer};

/// Connections opened before the baseline is read, so thread-local and
/// allocator state that the first connections create is already there.
const WARMUP: u64 = 64;
/// Connections opened after it, one after another.
const CONNECTIONS: u64 = 3_000;
/// Allowed growth of the process's virtual size over those connections.
/// An unjoined thread keeps its stack mapped (2 MiB by default), so
/// holding every finished thread until `finish` grows it by ~6 GiB. The
/// allowance covers the malloc arenas (64 MiB of address space each) the
/// allocator may add when a few threads briefly overlap.
const MAX_VM_GROWTH_KIB: u64 = 512 * 1024;
/// Allowed growth of the live thread count.
const MAX_THREAD_GROWTH: u64 = 8;

/// One `/proc/self/status` field (`VmSize` in KiB, `Threads` as a count).
fn status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|value| value.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"))
}

/// Opens one connection, says `Shutdown`, and waits for the server to
/// close it: afterwards its connection thread has nothing left to do.
fn short_connection(server: &TcpReportServer) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to loopback");
    WireMessage::Shutdown
        .write_to(&mut stream)
        .expect("send Shutdown");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "Shutdown is never answered");
}

#[test]
fn finished_connection_threads_are_reaped() {
    let server =
        TcpReportServer::bind("127.0.0.1:0", ServerConfig::default(), NetConfig::default())
            .expect("bind loopback");
    for _ in 0..WARMUP {
        short_connection(&server);
    }
    let (vm_before, threads_before) = (status("VmSize"), status("Threads"));
    for _ in 0..CONNECTIONS {
        short_connection(&server);
    }
    let (vm_after, threads_after) = (status("VmSize"), status("Threads"));
    let stats = server.stats();
    drop(server.finish());

    assert_eq!(stats.connections(), WARMUP + CONNECTIONS);
    assert_eq!(stats.faulted_connections(), 0);
    let vm_growth = vm_after.saturating_sub(vm_before);
    assert!(
        vm_growth <= MAX_VM_GROWTH_KIB,
        "virtual size grew {vm_growth} KiB over {CONNECTIONS} sequential connections \
         ({vm_before} -> {vm_after} KiB)"
    );
    let thread_growth = threads_after.saturating_sub(threads_before);
    assert!(
        thread_growth <= MAX_THREAD_GROWTH,
        "{thread_growth} more live threads after {CONNECTIONS} sequential connections"
    );
}
