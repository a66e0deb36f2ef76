// Package repro is a from-scratch Go reproduction of "System Level
// Analysis of the Bluetooth Standard" (Conti & Moretti, DATE 2005): a
// discrete-event, behavioural-level model of the Bluetooth 1.2 lower
// layers (baseband link controller, link manager, thin HCI) over a noisy
// shared channel, with the instrumentation needed to regenerate every
// figure of the paper's evaluation.
//
// The public API lives in internal/core (simulation assembly and
// scenario helpers), internal/baseband (devices, links, power modes),
// internal/lmp and internal/hci. internal/netspec is the declarative
// topology layer: one Spec value — piconet, bridge, traffic, jammer,
// power-mode and probe stanzas — compiles into any world the model can
// express, from a lone piconet to a jammed multi-piconet room to a
// bridged scatternet with crossing flows, and the built World exposes
// one unified Metrics surface. It subsumes the engines that grew
// underneath it: several piconets on one shared medium with adaptive
// channel classification learning AFH maps from per-frequency
// reception errors, and scatternet bridges that are slaves in two
// piconets at once, timesharing one radio over per-piconet baseband
// memberships (the LMP slot-offset/sniff handshake pins the presence
// windows) while relaying L2CAP frames store-and-forward.
// internal/runner is the declarative trial engine: experiment sweeps
// declare their axes and a per-seed trial function, and the engine fans
// the replicas out across a worker pool while keeping every table
// byte-identical to a serial run. See README.md for a package tour,
// ARCHITECTURE.md for the layer map and slot-level data flow, and
// EXPERIMENTS.md for the figure-by-figure reproduction guide.
// The benchmarks in bench_test.go regenerate each figure; run them with
//
//	go test -bench=. -benchmem
package repro
