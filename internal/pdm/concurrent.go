package pdm

// SetConcurrent switches the storage backend between sequential and
// concurrent dispatch of the per-disk transfers inside one parallel I/O,
// when the backend supports the toggle (the built-in backends and the
// wrappers over them do; custom backends may ignore it and choose their
// own dispatch). The model semantics and the I/O counts are identical
// either way — the D transfers of a parallel I/O touch disjoint disks and
// disjoint memory frames, so they commute — but concurrent dispatch lets
// file-backed disks overlap real storage latency the way D physical
// spindles would.
func (s *System) SetConcurrent(on bool) {
	if cs, ok := s.be.(concurrentSetter); ok {
		cs.SetConcurrent(on)
	}
}
