//! A real `SIGTERM` (delivered with `kill`) drains the server: the
//! handler's flag is noticed by the accept loop, admission stops, WALs
//! are fsynced, a final snapshot is sealed, and `run()` returns cleanly
//! — the "exit 0" path of `rsz serve`.
//!
//! Lives in its own test binary on purpose: the signal flag is a
//! process-global static, and once set it would drain every server any
//! sibling test started afterwards.

#![cfg(unix)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use heterogeneous_rightsizing::serve::{
    install_sigterm_handler, wal, Client, ClientOptions, Daemon, GridSpec, ServeOptions, Server,
    TenantSpec,
};

#[test]
fn sigterm_drains_the_server_and_seals_a_final_snapshot() {
    let dir = std::env::temp_dir().join(format!("rsz-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    install_sigterm_handler();

    let daemon = Arc::new(
        Daemon::new(ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() }).unwrap(),
    );
    let server = Server::bind(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::new(&addr, ClientOptions::default());
    let spec = TenantSpec {
        fleet: "cpu-gpu:2,1".into(),
        algo: "b".into(),
        cache: false,
        grid: GridSpec::Full,
        deadline_us: None,
        snapshot_every: 0,
    };
    client.register("t", &spec).unwrap();
    for (i, &l) in [1.0, 2.5, 0.5].iter().enumerate() {
        client.tick("t", i as u64, l).unwrap();
    }
    // Close the connection: the drain joins per-connection workers, and
    // an idle open socket would hold it until the read timeout.
    drop(client);

    // The real thing: SIGTERM from outside, as an init system sends it.
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM failed: {status}");

    let deadline = Instant::now();
    while !daemon.shutdown_requested() {
        assert!(deadline.elapsed() < Duration::from_secs(10), "signal never drained the daemon");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().unwrap().expect("run() must exit cleanly on SIGTERM");
    assert!(
        wal::snap_path(&dir, "t").exists(),
        "the drain must have sealed a final snapshot (cadence 16 never fired over 3 ticks)"
    );

    // Restarting over the drained state resumes exactly where we left.
    let daemon =
        Daemon::new(ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() }).unwrap();
    let reply = daemon.handle(
        r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b","engine":true,"cache":false,"grid":"full"}"#,
    );
    assert!(reply.contains("\"resumed_ticks\":3"), "{reply}");
    let _ = std::fs::remove_dir_all(&dir);
}
