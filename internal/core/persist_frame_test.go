package core

// OPIMS6 hardening: a malformed frame — truncated, bit-flipped, oversized,
// or CRC-valid with an out-of-range recipe — is refused with ErrBadSession
// before the resolver runs, so before any sampling; a CRC-valid frame
// whose checksums regeneration cannot reproduce is refused after it.
// FuzzLoadSession holds the decoder to this on arbitrary JSON bodies.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/rrset"
)

// sealSession frames a JSON body as OPIMS6: magic, body, valid CRC.
func sealSession(body []byte) []byte {
	frame := append([]byte(sessionMagic), body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crcTable))
}

// sessionBody returns the JSON body of o's OPIMS6 frame.
func sessionBody(t testing.TB, o *Online) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSession(&buf, o); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	return raw[len(sessionMagic) : len(raw)-4]
}

// refusedBeforeSampling loads frame with a resolver that fails the test
// if reached and requires ErrBadSession.
func refusedBeforeSampling(t *testing.T, what string, frame []byte) {
	t.Helper()
	_, _, err := LoadSessionResolve(bytes.NewReader(frame), func(*SessionMeta) (*rrset.Sampler, error) {
		t.Fatalf("%s: resolver reached", what)
		return nil, nil
	})
	if !errors.Is(err, ErrBadSession) {
		t.Fatalf("%s: err = %v, want ErrBadSession", what, err)
	}
}

func TestLoadSessionRefusesMalformedFrames(t *testing.T) {
	g := testGraph(t, 200, 101)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Seed: 102})
	if err != nil {
		t.Fatal(err)
	}
	o.Advance(300)
	body := sessionBody(t, o)
	full := sealSession(body)

	for cut := 0; cut < len(full); cut++ {
		refusedBeforeSampling(t, fmt.Sprintf("truncation at %d", cut), full[:cut])
	}
	for i := range full {
		flipped := bytes.Clone(full)
		flipped[i] ^= 0x20
		refusedBeforeSampling(t, fmt.Sprintf("flipped byte %d", i), flipped)
	}
	if _, err := readSessionFrame(bytes.NewReader(full), len(full)-1); !errors.Is(err, ErrBadSession) {
		t.Fatalf("oversized frame: err = %v, want ErrBadSession", err)
	}

	// CRC-valid frames whose recipe is out of range.
	for _, tc := range []struct {
		key string
		val any
	}{
		{"theta1", -1},
		{"theta2", int64(1) << 31},
		{"theta1", int64(1) << 40},
		{"epoch", -1},
		{"queries", -3},
		{"n", 2}, // below k
		{"options", map[string]any{"K": 3, "Delta": 1.5}},
	} {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		m[tc.key] = tc.val
		forged, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		refusedBeforeSampling(t, fmt.Sprintf("%s=%v", tc.key, tc.val), sealSession(forged))
	}

	// A CRC-valid frame whose checksum regeneration cannot reproduce.
	var meta SessionMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	meta.Checksum2 ^= 1
	forged, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(bytes.NewReader(sealSession(forged)), s); !errors.Is(err, ErrBadSession) {
		t.Fatalf("wrong checksum: err = %v, want ErrBadSession", err)
	}
	// And the untouched frame still loads.
	if _, err := LoadSession(bytes.NewReader(full), s); err != nil {
		t.Fatal(err)
	}
}

// errFuzzTheta refuses recipes too large for the fuzz sampler to
// regenerate quickly.
var errFuzzTheta = errors.New("fuzz: θ₁+θ₂ above 4096")

// FuzzLoadSession fuzzes the OPIMS6 JSON body, sealed with a valid CRC so
// the decoder's recipe checks are what the fuzzer exercises. Anything
// accepted must re-save, load back and re-save to identical bytes.
func FuzzLoadSession(f *testing.F) {
	g := testGraph(f, 60, 103)
	s := rrset.NewSampler(g, diffusion.IC)
	o, err := NewOnline(s, Options{K: 3, Delta: 0.1, Variant: Plus, Seed: 104, BaseSeeds: []int32{5, 9}})
	if err != nil {
		f.Fatal(err)
	}
	o.Advance(201)
	o.Snapshot()
	o.SetExtension([]byte("opaque\napplication state"))
	f.Add(sessionBody(f, o))
	f.Add([]byte(`{"n":60,"options":{"K":2,"Delta":0.5,"Workers":3},"theta1":7,"theta2":6}`))
	f.Add([]byte(`{"n":60,"options":{"K":2,"Delta":0.5},"theta1":5000}`))
	f.Add([]byte(`{}`))
	resolve := func(m *SessionMeta) (*rrset.Sampler, error) {
		if m.Theta1+m.Theta2 > 4096 {
			return nil, errFuzzTheta
		}
		return s, nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		o, _, err := LoadSessionResolve(bytes.NewReader(sealSession(body)), resolve)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveSession(&first, o); err != nil {
			t.Fatalf("accepted session failed to save: %v", err)
		}
		again, _, err := LoadSessionResolve(bytes.NewReader(first.Bytes()), resolve)
		if err != nil {
			t.Fatalf("re-saved session rejected: %v", err)
		}
		if err := SaveSession(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save → load → save changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
