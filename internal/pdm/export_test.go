package pdm

// DisableFileDiskMmap makes file backends opened afterwards serve every
// run through pread/pwrite instead of the mapping, and returns the
// function restoring the previous setting. It lets the external
// conformance tests certify the pread/pwrite path too.
func DisableFileDiskMmap() (restore func()) {
	old := fileDiskMmap
	fileDiskMmap = false
	return func() { fileDiskMmap = old }
}
