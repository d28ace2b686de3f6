package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

func newPayloadServer(t *testing.T, payload []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Declare the length explicitly: large bodies otherwise go out
		// chunked, and the torn-body injector can only guarantee an
		// in-payload cut when Content-Length is known.
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFlakyRoundTripperDeterministic(t *testing.T) {
	srv := newPayloadServer(t, []byte("ok"))

	run := func(seed uint64) []bool {
		client := &http.Client{Transport: NewFlakyRoundTripper(nil, seed, 0.4)}
		outcomes := make([]bool, 0, 32)
		for i := 0; i < 32; i++ {
			resp, err := client.Get(srv.URL)
			if err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("request %d: unexpected error %v", i, err)
				}
				outcomes = append(outcomes, false)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes = append(outcomes, true)
		}
		return outcomes
	}

	a, b := run(7), run(7)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.4 over %d requests produced %d failures; injector not mixing", len(a), fails)
	}
}

func TestTornBodyRoundTripperTearsMidPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 8192)
	srv := newPayloadServer(t, payload)

	client := &http.Client{Transport: NewTornBodyRoundTripper(nil, 3, 1.0)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d; torn injector must not touch the status line", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read error = %v, want ErrInjected", err)
	}
	if len(got) >= len(payload) {
		t.Fatalf("read %d of %d bytes; body was not torn", len(got), len(payload))
	}
	if !bytes.Equal(got, payload[:len(got)]) {
		t.Fatal("torn prefix differs from the true payload prefix")
	}
}

func TestTornBodyRoundTripperDeterministicPattern(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1024)
	srv := newPayloadServer(t, payload)

	run := func() []int {
		client := &http.Client{Transport: NewTornBodyRoundTripper(nil, 99, 0.5)}
		lens := make([]int, 0, 16)
		for i := 0; i < 16; i++ {
			resp, err := client.Get(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			lens = append(lens, len(got))
		}
		return lens
	}

	a, b := run(), run()
	torn := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %d vs %d bytes", i, a[i], b[i])
		}
		if a[i] < len(payload) {
			torn++
		}
	}
	if torn == 0 || torn == len(a) {
		t.Fatalf("p=0.5 over %d responses tore %d; injector not mixing", len(a), torn)
	}
}

func TestTornBodyPassThroughWhenDisabled(t *testing.T) {
	payload := []byte("intact payload")
	srv := newPayloadServer(t, payload)

	client := &http.Client{Transport: NewTornBodyRoundTripper(nil, 1, 0)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("p=0 altered the response: %q, %v", got, err)
	}
}
