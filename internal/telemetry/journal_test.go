package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// newTestJournal opens a file-backed journal in a temp dir and guarantees
// it is closed and reset at test end.
func newTestJournal(t *testing.T, ringCap int) (*Journal, string) {
	t.Helper()
	j := NewJournal(ringCap)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := j.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

// The JSONL schema is a contract with replay tooling: envelope keys in a
// fixed order, data keys sorted. A drift here breaks every consumer.
func TestJournalSchemaGolden(t *testing.T) {
	ev := Event{
		Seq:  7,
		TNS:  1700000000123456789,
		Type: EvNewtonIter,
		ID:   "solve-3",
		Data: map[string]any{"iter": 2, "max_dv": 0.5, "cg_iters": 41},
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":7,"t_ns":1700000000123456789,"type":"newton_iter","id":"solve-3","data":{"cg_iters":41,"iter":2,"max_dv":0.5}}`
	if string(b) != want {
		t.Fatalf("journal line schema drifted:\n got %s\nwant %s", b, want)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seq != ev.Seq || back.Type != ev.Type || back.ID != ev.ID {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// Every event type constant must be a valid JSONL journal line producer.
func TestJournalEventTypes(t *testing.T) {
	j, path := newTestJournal(t, 16)
	types := []EventType{EvSolveStart, EvNewtonIter, EvSolveEnd,
		EvTransientSettle, EvCandidateEval, EvMCTrial, EvPhase, EvSpan,
		EvResourceSample, EvWatchdogStall}
	for i, typ := range types {
		j.Emit(typ, fmt.Sprintf("id-%d", i), map[string]any{"k": i})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header event plus one per type.
	if len(events) != len(types)+1 {
		t.Fatalf("got %d events, want %d", len(events), len(types)+1)
	}
	if events[0].Type != EvJournal {
		t.Fatalf("first event %q, want journal header", events[0].Type)
	}
	if v, ok := events[0].Data["schema_version"].(float64); !ok || int(v) != JournalSchemaVersion {
		t.Fatalf("header schema_version = %v", events[0].Data["schema_version"])
	}
	for i, typ := range types {
		ev := events[i+1]
		if ev.Type != typ {
			t.Errorf("event %d type %q, want %q", i, ev.Type, typ)
		}
		if ev.Seq != int64(i+2) {
			t.Errorf("event %d seq %d, want %d", i, ev.Seq, i+2)
		}
	}
}

// Forward compatibility within schema v2: event types this reader has
// never heard of (emitted by a newer writer) must survive a round trip
// with their type and data intact, not error or get dropped. New event
// kinds are added without a version bump; only envelope changes bump.
func TestJournalReaderToleratesUnknownEventTypes(t *testing.T) {
	j, path := newTestJournal(t, 16)
	j.Emit(EvSolveStart, "solve-1", map[string]any{"m": 4})
	j.Emit(EventType("quantum_flux"), "future-1", map[string]any{"flux": 0.75, "units": "Wb"})
	j.Emit(EvSolveEnd, "solve-1", map[string]any{"ok": true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("reader rejected unknown event type: %v", err)
	}
	if len(events) != 4 { // header + 3 emits
		t.Fatalf("got %d events, want 4", len(events))
	}
	unk := events[2]
	if unk.Type != EventType("quantum_flux") {
		t.Fatalf("unknown type mangled: %q", unk.Type)
	}
	if unk.ID != "future-1" {
		t.Fatalf("unknown event id %q", unk.ID)
	}
	if v, ok := unk.Data["flux"].(float64); !ok || v != 0.75 {
		t.Fatalf("unknown event data mangled: %v", unk.Data)
	}
	// And the known events around it are untouched.
	if events[1].Type != EvSolveStart || events[3].Type != EvSolveEnd {
		t.Fatalf("neighbors mangled: %q, %q", events[1].Type, events[3].Type)
	}
}

// Concurrent writers must interleave cleanly: run with -race, and every
// line in the file must still be complete, parseable JSON with unique seq.
func TestJournalConcurrentWriters(t *testing.T) {
	j, path := newTestJournal(t, 64)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j.Emit(EvMCTrial, fmt.Sprintf("w%d", w), map[string]any{"trial": i})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*perWorker+1 {
		t.Fatalf("got %d events, want %d", len(events), workers*perWorker+1)
	}
	seen := map[int64]bool{}
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// A crash mid-write leaves a truncated final line; the reader must return
// every complete event and skip the torn tail.
func TestJournalReaderToleratesTruncatedTail(t *testing.T) {
	j, path := newTestJournal(t, 16)
	j.Emit(EvSolveStart, "solve-1", map[string]any{"m": 4})
	j.Emit(EvSolveEnd, "solve-1", map[string]any{"ok": true})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: chop the file mid-way through the last line.
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 { // header + solve_start survive
		t.Fatalf("got %d events after truncation, want 2", len(events))
	}
	if events[1].Type != EvSolveStart {
		t.Fatalf("surviving event %q", events[1].Type)
	}
}

// Corruption in the middle of the file (not at the tail) must error.
func TestJournalReaderRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	lines := `{"seq":1,"t_ns":1,"type":"journal"}
{"seq":2,"t_ns":2,"type":"solve_sta
{"seq":3,"t_ns":3,"type":"solve_end"}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalFile(path); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
}

// The ring buffer bounds memory: old events drop, the drop is counted, and
// the file still holds everything. Past a wraparound the ring serves
// exactly the newest cap events in seq order; the 20-event case is 2.5x its
// capacity, so 1.5x the capacity is dropped.
func TestJournalRingBounded(t *testing.T) {
	for _, tc := range []struct{ ringCap, emits int }{{4, 10}, {8, 19}} {
		j, path := newTestJournal(t, tc.ringCap)
		for i := 0; i < tc.emits; i++ {
			j.Emit(EvPhase, "", map[string]any{"i": i})
		}
		var sb strings.Builder
		if err := j.WriteEventsJSON(&sb); err != nil {
			t.Fatal(err)
		}
		var out struct {
			Enabled bool    `json:"enabled"`
			Total   int64   `json:"total"`
			Dropped int64   `json:"dropped"`
			Events  []Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
			t.Fatal(err)
		}
		total := int64(tc.emits + 1) // the header plus the emits
		if len(out.Events) != tc.ringCap {
			t.Fatalf("cap %d: ring holds %d", tc.ringCap, len(out.Events))
		}
		if out.Total != total || out.Dropped != total-int64(tc.ringCap) {
			t.Fatalf("cap %d: total %d dropped %d, want %d/%d", tc.ringCap, out.Total, out.Dropped, total, total-int64(tc.ringCap))
		}
		// Ring keeps the most recent events, oldest first.
		for i, ev := range out.Events {
			if want := total - int64(tc.ringCap) + int64(i) + 1; ev.Seq != want {
				t.Fatalf("cap %d: ring slot %d has seq %d, want %d", tc.ringCap, i, ev.Seq, want)
			}
		}
		if got := j.Events(); len(got) != tc.ringCap || got[0].Seq != out.Events[0].Seq {
			t.Fatalf("cap %d: Events() disagrees with /events: %d events", tc.ringCap, len(got))
		}
		j.Close()
		events, err := ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(events)) != total {
			t.Fatalf("cap %d: file holds %d events, want all %d", tc.ringCap, len(events), total)
		}
	}
}

// Disabled journal: Emit is a cheap no-op, SaveSnapshot declines.
func TestJournalDisabledNoOp(t *testing.T) {
	j := NewJournal(4)
	j.Emit(EvSolveStart, "x", map[string]any{"a": 1})
	var sb strings.Builder
	if err := j.WriteEventsJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"total": 0`) {
		t.Fatalf("disabled journal recorded: %s", sb.String())
	}
	if path, err := j.SaveSnapshot("divergence", map[string]int{"x": 1}); err != nil || path != "" {
		t.Fatalf("SaveSnapshot on disabled journal: path %q err %v", path, err)
	}
}

// Snapshots land next to the journal file and carry the payload verbatim.
func TestJournalSaveSnapshot(t *testing.T) {
	j, path := newTestJournal(t, 4)
	snapPath, err := j.SaveSnapshot("divergence", map[string]any{"m": 2, "vin": []float64{0.25, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(snapPath) != filepath.Dir(path) {
		t.Fatalf("snapshot %q not next to journal %q", snapPath, path)
	}
	if !strings.Contains(filepath.Base(snapPath), "divergence") {
		t.Fatalf("snapshot name %q missing kind", snapPath)
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back["m"].(float64) != 2 {
		t.Fatalf("payload mangled: %v", back)
	}
	// Journal-referenced snapshot discovery.
	j.Emit(EvSolveEnd, "solve-1", map[string]any{"ok": false, "snapshot": snapPath})
	j.Close()
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	paths := JournalSnapshotPaths(path, events)
	if len(paths) != 1 || paths[0] != snapPath {
		t.Fatalf("JournalSnapshotPaths = %v, want [%s]", paths, snapPath)
	}
}

// The /events endpoint on the serve mux streams the default journal ring.
func TestServeMuxEvents(t *testing.T) {
	defaultJournal.Reset()
	defaultJournal.EnableRing()
	defer func() {
		defaultJournal.Close()
		defaultJournal.Reset()
	}()
	EmitEvent(EvCandidateEval, "cand-8x2@45", map[string]any{"outcome": "ok"})
	srv := httptest.NewServer(NewServeMux(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var out struct {
		Enabled bool    `json:"enabled"`
		Events  []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || len(out.Events) != 1 || out.Events[0].Type != EvCandidateEval {
		t.Fatalf("events payload %+v", out)
	}
	if out.Events[0].ID != "cand-8x2@45" {
		t.Fatalf("event id %q", out.Events[0].ID)
	}
}
