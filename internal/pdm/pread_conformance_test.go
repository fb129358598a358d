package pdm_test

import (
	"testing"

	bmmc "repro"
	"repro/backendtest"
	"repro/internal/pdm"
)

// The file backend's pread/pwrite path only serves hosts without the
// mapping, so the public harness, which runs on the default path, would
// never reach it here. These run the base and chaos contracts — block
// vectors over scattered frames included, which that path stages through
// its per-disk scratch — with the mapping switched off.

func TestFileBackendPreadConformance(t *testing.T) {
	defer pdm.DisableFileDiskMmap()()
	backendtest.Run(t, func(t *testing.T) bmmc.Backend { return bmmc.FileBackend(t.TempDir()) })
}

func TestChaosFileBackendPreadConformance(t *testing.T) {
	defer pdm.DisableFileDiskMmap()()
	backendtest.RunChaos(t, func(t *testing.T) bmmc.Backend { return bmmc.FileBackend(t.TempDir()) })
}
