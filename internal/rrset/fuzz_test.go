package rrset

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadBatch checks the frame decoder never panics and that whatever it
// accepts re-encodes to a frame that decodes to the same batch.
func FuzzReadBatch(f *testing.F) {
	c := NewCollection(4)
	c.Add([]int32{0, 2}, 3)
	c.Add([]int32{1}, 1)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("OPIMR1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadBatch(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBatch(&out, got); err != nil {
			t.Fatalf("accepted batch failed to serialize: %v", err)
		}
		again, err := ReadBatch(&out)
		if err != nil {
			t.Fatalf("writer output rejected: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatal("round trip changed the batch")
		}
	})
}
