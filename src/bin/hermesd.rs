//! `hermesd` — one Hermes replica as its own OS process.
//!
//! Binds a replication listener (TCP, length-prefixed Wings frames) and a
//! client RPC port, runs the live membership subsystem (heartbeats, lease
//! expiry → view changes, shadow rejoin — DESIGN.md §5), and serves until
//! told to stop. Three of these on one box are a real multi-process Hermes
//! cluster that survives `kill -9` of a replica:
//!
//! ```sh
//! cargo run --release --bin hermesd -- --node 0 \
//!     --peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//!     --client 127.0.0.1:8101 &
//! # ... same for --node 1 / --node 2 with their own --client ports.
//! # A killed replica restarts with --join: it re-enters as a shadow,
//! # bulk-syncs the dataset, and is promoted back to full member.
//! ```
//!
//! The program is [`hermes::harness::daemon_main`], which lists its flags,
//! exit paths, logs and stdout markers.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    hermes::harness::daemon_main(&args);
}
