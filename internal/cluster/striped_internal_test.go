package cluster

import (
	"bytes"
	"io"
	"testing"
)

// TestGatherBufferDoesNotRegrow: the exchange gathers k stripes into one
// buffer through io.Copy from each download's response body. That copy
// goes through bytes.Buffer.ReadFrom, which wants bytes.MinRead bytes of
// free space before every read; a buffer sized to exactly the k stripes
// would be reallocated at about twice its size once nearly full.
func TestGatherBufferDoesNotRegrow(t *testing.T) {
	const stripeBytes, k = 4096 * 16, 4
	buf := newGatherBuffer(stripeBytes, k)
	start := buf.Cap()
	stripe := bytes.Repeat([]byte{0xa5}, stripeBytes)
	for j := 0; j < k; j++ {
		// struct{ io.Reader } hides bytes.Reader's WriteTo, like an HTTP
		// response body, so io.Copy takes the ReadFrom path.
		if _, err := io.Copy(buf, struct{ io.Reader }{bytes.NewReader(stripe)}); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != k*stripeBytes {
		t.Fatalf("gathered %d bytes, want %d", buf.Len(), k*stripeBytes)
	}
	if buf.Cap() != start {
		t.Fatalf("gather buffer regrew from %d to %d bytes", start, buf.Cap())
	}
}
