// Command rilvet runs the repository's Go-code static-analysis suite
// (internal/golint): determinism (rand-global, map-order, time-seed),
// concurrency (ctx-loop, goroutine-hygiene, mutex-oracle) and
// durability (sync-errcheck) invariants that the reproduction's
// replay, sweep and crash-safety guarantees depend on. It is the
// Go-source sibling of cmd/netlint, with the same exit-code contract.
//
// Usage:
//
//	rilvet [flags] <path ...>
//
//	rilvet ./...
//	rilvet -analyzers sync-errcheck,map-order internal/attack
//	rilvet -list
//
// False positives are silenced per line with a mandatory-reason
// comment: //rilvet:ignore <rule> <reason>. See DESIGN.md §11.
//
// Exit status: 0 when no unsuppressed finding was produced, 1 when at
// least one was, 2 on usage, I/O or parse failure.
package main

import (
	"os"

	"repro/internal/golint"
)

func main() {
	os.Exit(golint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
