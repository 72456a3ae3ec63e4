package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"surfdeformer/internal/mc"
)

func tempStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	s := tempStore(t)
	cfg := json.RawMessage(`{"d":5,"p":0.004}`)
	if err := s.Append(Row{Key: "k1", Kind: "memsweep", Seq: 0, Shots: 1000, Failures: 13,
		Complete: true, Config: cfg, Payload: json.RawMessage(`{"z":1}`)}); err != nil {
		t.Fatal(err)
	}
	reopen, err := Open(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer reopen.Close()
	p, ok := reopen.Get("k1")
	if !ok {
		t.Fatal("k1 missing after reopen")
	}
	if p.Shots != 1000 || p.Failures != 13 || !p.Complete || p.Kind != "memsweep" {
		t.Fatalf("round trip mangled point: %+v", p)
	}
	if string(p.Payload) != `{"z":1}` {
		t.Fatalf("payload mangled: %s", p.Payload)
	}
	wantLo, wantHi := mc.WilsonInterval(13, 1000, mc.DefaultZ)
	if p.CILow != wantLo || p.CIHigh != wantHi {
		t.Fatalf("CI not recomputed from counts: [%v, %v]", p.CILow, p.CIHigh)
	}
}

func TestSegmentsMergeWithCIRecompute(t *testing.T) {
	s := tempStore(t)
	must := func(r Row) {
		t.Helper()
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	must(Row{Key: "k", Seq: 0, Shots: 500, Failures: 5, Payload: json.RawMessage(`{"seg":0}`)})
	must(Row{Key: "k", Seq: 1, Shots: 1500, Failures: 20, Payload: json.RawMessage(`{"seg":1}`)})
	// Duplicate segment replays are ignored, not double-counted.
	must(Row{Key: "k", Seq: 1, Shots: 1500, Failures: 20})
	p, _ := s.Get("k")
	if p.Shots != 2000 || p.Failures != 25 || p.Segments != 2 || p.NextSeq != 2 {
		t.Fatalf("merge wrong: %+v", p)
	}
	if p.Rate != 25.0/2000 {
		t.Fatalf("rate %v not recomputed from merged counts", p.Rate)
	}
	lo, hi := mc.WilsonInterval(25, 2000, mc.DefaultZ)
	if p.CILow != lo || p.CIHigh != hi {
		t.Fatal("Wilson CI must come from the merged counts, not any single segment")
	}
	if string(p.Payload) != `{"seg":1}` {
		t.Fatalf("payload must track the highest segment, got %s", p.Payload)
	}
}

func TestHashStableAcrossFieldOrder(t *testing.T) {
	type a struct {
		D     int     `json:"d"`
		P     float64 `json:"p"`
		Label string  `json:"label"`
	}
	type b struct {
		Label string  `json:"label"`
		P     float64 `json:"p"`
		D     int     `json:"d"`
	}
	ka, _, err := Key("sweep", a{D: 7, P: 4e-3, Label: "uf"})
	if err != nil {
		t.Fatal(err)
	}
	kb, _, err := Key("sweep", b{Label: "uf", P: 0.004, D: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("field order changed the hash: %s vs %s", ka, kb)
	}
	kc, _, _ := Key("sweep", a{D: 7, P: 4e-3, Label: "greedy"})
	if kc == ka {
		t.Fatal("distinct configs must hash apart")
	}
	kd, _, _ := Key("other", a{D: 7, P: 4e-3, Label: "uf"})
	if kd == ka {
		t.Fatal("kind must participate in the hash")
	}
	// Nested maps canonicalize too (map iteration order is random in Go).
	for i := 0; i < 8; i++ {
		k, _, err := Key("m", map[string]any{"z": 1, "a": 2, "nested": map[string]int{"x": 1, "y": 2}})
		if err != nil {
			t.Fatal(err)
		}
		k0, _, _ := Key("m", map[string]any{"nested": map[string]int{"y": 2, "x": 1}, "a": 2, "z": 1})
		if k != k0 {
			t.Fatal("map key order changed the hash")
		}
	}
}

func TestCorruptedLinesTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	good1, _ := json.Marshal(Row{Key: "a", Seq: 0, Shots: 10, Failures: 1})
	good2, _ := json.Marshal(Row{Key: "b", Seq: 0, Shots: 20, Failures: 2})
	content := string(good1) + "\n" +
		"{\"key\":\"torn\",\"sho" + "\n" + // torn append
		"not json at all\n" +
		"{\"seq\":3}\n" + // parsable but keyless
		string(good2) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("want 2 points, got %d", s.Len())
	}
	if s.Corrupted() != 3 {
		t.Fatalf("want 3 tolerated lines, got %d", s.Corrupted())
	}
	// The store stays appendable after tolerating garbage.
	if err := s.Append(Row{Key: "c", Seq: 0, Shots: 5}); err != nil {
		t.Fatal(err)
	}
	reopen, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopen.Close()
	if reopen.Len() != 3 {
		t.Fatalf("append after corruption lost rows: %d points", reopen.Len())
	}
}

func TestGCCompacts(t *testing.T) {
	s := tempStore(t)
	for seq := 0; seq < 4; seq++ {
		if err := s.Append(Row{Key: "k", Kind: "memsweep", Seq: seq, Shots: 100, Failures: seq,
			Payload: json.RawMessage(`{"seg":` + string(rune('0'+seq)) + `}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(Row{Key: "j", Seq: 0, Shots: 50, Failures: 1, Complete: true}); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Get("k")
	if err := s.GC(); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Get("k")
	if !ok {
		t.Fatal("k lost by GC")
	}
	if after.Shots != before.Shots || after.Failures != before.Failures {
		t.Fatalf("GC changed merged counts: %+v vs %+v", after, before)
	}
	if after.Segments != 1 {
		t.Fatalf("GC should leave one segment, got %d", after.Segments)
	}
	if after.NextSeq != before.NextSeq {
		t.Fatalf("GC must preserve the segment-stream watermark: %d vs %d", after.NextSeq, before.NextSeq)
	}
	// The file itself shrank to one line per key and reopens identically.
	data, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 2 {
		t.Fatalf("compacted file has %d lines, want 2", lines)
	}
	reopen, err := Open(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer reopen.Close()
	rp, _ := reopen.Get("k")
	if rp.Shots != before.Shots || rp.Failures != before.Failures {
		t.Fatal("compacted file reopens with different counts")
	}
	// The watermark must survive the file round-trip, not just the open
	// handle: a NEW session growing a compacted point must never reuse a
	// stream index whose draws are already inside the merged counts.
	if rp.NextSeq != before.NextSeq {
		t.Fatalf("reopened compacted store lost the segment watermark: NextSeq %d, want %d",
			rp.NextSeq, before.NextSeq)
	}
	// Appends continue to work post-GC on the renamed file handle.
	if err := s.Append(Row{Key: "k", Seq: after.NextSeq, Shots: 100, Failures: 9}); err != nil {
		t.Fatal(err)
	}
	grown, _ := s.Get("k")
	if grown.Shots != before.Shots+100 {
		t.Fatalf("post-GC growth lost: %+v", grown)
	}
}

func TestKeysSorted(t *testing.T) {
	s := tempStore(t)
	for _, k := range []string{"zz", "aa", "mm"} {
		if err := s.Append(Row{Key: k, Seq: 0}); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "aa" || keys[1] != "mm" || keys[2] != "zz" {
		t.Fatalf("keys not sorted: %v", keys)
	}
}
