//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate (the workspace builds without network access — see DESIGN.md §0).
//!
//! Empty. Every cross-thread hand-off in the workspace goes through
//! `hermes_net::Inbox`. The crate stays while three manifests still name
//! it: dropping an edge rewrites `examples/runtime_bench/Cargo.lock`, the
//! benchmark's own lock file (ROADMAP item 1(d) removes crate and edges).
