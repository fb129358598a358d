package backendtest_test

import (
	"testing"

	bmmc "repro"
	"repro/backendtest"
)

// The three built-in backends certify against the same harness offered to
// third-party implementers, so the documented contract and the shipped
// behavior cannot drift apart.

func TestMemBackend(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) bmmc.Backend {
		return bmmc.MemBackend()
	})
}

func TestFileBackend(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) bmmc.Backend {
		return bmmc.FileBackend(t.TempDir())
	})
}

func TestShardedBackend(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) bmmc.Backend {
		return bmmc.ShardedBackend(t.TempDir(), t.TempDir())
	})
}

// The built-ins certify against the chaos harness too, so the adversarial
// wrappers offered to backend authors are known to compose with every
// shipped backend.

func TestChaosMemBackend(t *testing.T) {
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
		return bmmc.MemBackend()
	})
}

func TestChaosFileBackend(t *testing.T) {
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
		return bmmc.FileBackend(t.TempDir())
	})
}

func TestChaosShardedBackend(t *testing.T) {
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend {
		return bmmc.ShardedBackend(t.TempDir(), t.TempDir())
	})
}
