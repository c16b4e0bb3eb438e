// Package lemonade is a Go reproduction of "Lemonade from Lemons:
// Harnessing Device Wearout to Create Limited-Use Security Architectures"
// (Deng, Feldman, Kurtz, Chong — ISCA 2017).
//
// The library turns device wearout into a security primitive: secrets are
// stored behind simulated NEMS contact switches whose Weibull-distributed
// lifetimes statistically enforce both a minimum number of uses (for
// legitimate users) and a maximum (against brute-force and cloning
// adversaries).
//
// Layout:
//
//   - internal/core — the paper's contribution: buildable limited-use
//     architectures (design → fabricate → access until wearout)
//   - internal/dse — the design-space exploration that sizes them
//   - internal/{weibull,nems,memory,structure,reliability,cost} — the
//     device and structure substrates
//   - internal/{gf256,gf16,shamir,shamir16} — the redundant-encoding substrates
//   - internal/{connection,targeting,otp} — the paper's three use cases
//   - internal/{password,attack,montecarlo} — threat models and harness
//   - internal/figures — regenerates every table and figure of the paper
//   - cmd/lemonade, cmd/experiments — CLI front ends
//   - examples/ — runnable demonstrations of the public API
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package lemonade
