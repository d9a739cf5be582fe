package slade_test

import (
	"os/exec"
	"testing"
)

// TestLedgerCompiles keeps tier-1 honest about benchmark/: it is its own
// module, so `go build ./... && go test ./...` at the root never compiles
// it, and a facade or service change can break the performance ledger
// unnoticed. This vets it in place with the test's own environment.
func TestLedgerCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module; skipped under -short")
	}
	out, err := exec.Command("go", "-C", "benchmark", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
