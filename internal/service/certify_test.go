package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/seq"
)

// A done job carries the certificate of its assignment. A cache hit and a
// daemon restarted over the job directory return the cold job's certificate
// (stored with the result: only finishJob certifies), and the API's job and
// result documents carry it.
func TestCertificateTravelsWithResult(t *testing.T) {
	path, n := writeGraph(t, 300, 1500, 5)
	dir := t.TempDir()
	opt := Options{DataDir: dir, RankBudget: 2, Hang: quietHang}
	s1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, cold.ID, StateDone)
	res, err := s1.Result(cold.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.Certify(n, gio.Stream(path), res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate == nil || *res.Certificate != want || math.Float64bits(want.Q) != math.Float64bits(res.Modularity) {
		t.Fatalf("result %+v carries certificate %+v, the labels certify to %+v", res, res.Certificate, want)
	}
	hit, err := s1.Submit(JobSpec{GraphPath: path, Ranks: 1})
	if err != nil || !hit.CacheHit {
		t.Fatalf("duplicate: %+v, %v", hit, err)
	}

	// The API documents of both jobs name every certificate field.
	srv := httptest.NewServer(s1.Handler())
	for _, id := range []string{cold.ID, hit.ID} {
		for _, url := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result"} {
			resp, err := srv.Client().Get(srv.URL + url)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Certificate *seq.Certificate `json:"certificate"`
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil || doc.Certificate == nil || *doc.Certificate != want {
				t.Fatalf("GET %s: certificate %+v (%v), want %+v", url, doc.Certificate, err, want)
			}
		}
	}
	srv.Close()
	s1.Close()

	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	again, err := s2.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil || !again.CacheHit {
		t.Fatalf("resubmission after restart: %+v, %v", again, err)
	}
	for _, id := range []string{cold.ID, hit.ID, again.ID} {
		got, err := s2.Result(id, false)
		if err != nil || got.Certificate == nil || *got.Certificate != want {
			t.Fatalf("after restart, job %s: certificate %+v (%v), want %+v", id, got.Certificate, err, want)
		}
	}
}

// A done job recorded without a certificate (job.json from before results
// carried one) recovers with none: its view and result name no certificate,
// and it does not re-warm the cache, so a duplicate runs and is certified.
func TestRecoveredResultWithoutCertificate(t *testing.T) {
	path, n := writeGraph(t, 300, 1500, 5)
	opt := Options{DataDir: t.TempDir(), RankBudget: 2, Hang: quietHang}
	s1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, cold.ID, StateDone)
	recPath := filepath.Join(s1.jobsDir(), cold.ID, "job.json")
	s1.Close()

	var rec map[string]any
	data, err := os.ReadFile(recPath)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	delete(rec["result"].(map[string]any), "certificate")
	if data, err = json.Marshal(rec); err == nil {
		err = os.WriteFile(recPath, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get(cold.ID)
	if err != nil || v.State != StateDone || v.Certificate != nil {
		t.Fatalf("recovered job: %+v (%v), want done without a certificate", v, err)
	}
	if res, err := s2.Result(cold.ID, false); err != nil || res.Certificate != nil {
		t.Fatalf("recovered result: %+v (%v), want no certificate", res, err)
	}
	dup, err := s2.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil || dup.CacheHit {
		t.Fatalf("duplicate of an uncertified result: %+v, %v; want a fresh run", dup, err)
	}
	waitState(t, s2, dup.ID, StateDone)
	res, err := s2.Result(dup.ID, true)
	if err != nil || res.Certificate == nil {
		t.Fatalf("duplicate's result: %+v (%v), want a certificate", res, err)
	}
	if want, err := seq.Certify(n, gio.Stream(path), res.Assignment); err != nil || *res.Certificate != want {
		t.Fatalf("duplicate carries %+v, the labels certify to %+v (%v)", res.Certificate, want, err)
	}
}

// A result whose labels no longer give its Q — one label moved after the run
// — fails the job with ErrUncertified: no cache entry, no result.labels.
func TestUncertifiedResultFails(t *testing.T) {
	path, n := writeGraph(t, 300, 1500, 5)
	res := refRun(t, path, n, core.Baseline())
	if res.GlobalComm[0] == res.GlobalComm[1] {
		res.GlobalComm[0] = (res.GlobalComm[1] + 1) % res.Communities
	} else {
		res.GlobalComm[0] = res.GlobalComm[1]
	}

	s := newTestService(t, 2, nil)
	j := &Job{
		ID: "tampered", Seq: 1, dir: filepath.Join(s.jobsDir(), "tampered"), graphPath: path, vertices: n,
		events: newHub(), state: StateRunning, ranks: 1,
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s.registerJob(j)
	s.finishJob(j, res, nil)

	v, err := s.Get(j.ID)
	if err != nil || v.State != StateFailed || !strings.Contains(v.Error, ErrUncertified.Error()) || !strings.Contains(v.Error, "certified Q") {
		t.Fatalf("tampered job: %+v (%v), want failed with %v", v, err, ErrUncertified)
	}
	if _, err := s.Result(j.ID, false); !errors.Is(err, ErrNotDone) {
		t.Fatalf("tampered job's result: %v, want ErrNotDone", err)
	}
	if _, err := os.Stat(filepath.Join(j.dir, "result.labels")); !os.IsNotExist(err) {
		t.Fatalf("result.labels written for an uncertified result (%v)", err)
	}
	if s.cache.len() != 0 {
		t.Fatalf("uncertified result cached: %d entries", s.cache.len())
	}
}

// A graph file with a NaN weight fails its job, promptly, instead of holding
// its ranks in a run that never converges.
func TestNaNWeightJobFails(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(4, 20, 0.5, 0.05, 1)
	edges[len(edges)/2].W = math.NaN()
	path := filepath.Join(t.TempDir(), "nan.bin")
	if err := gio.WriteBinary(path, n, edges); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, 2, nil)
	v, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v = waitState(t, s, v.ID, StateFailed); !strings.Contains(v.Error, "weight") {
		t.Fatalf("job failed with %q, want the weight named", v.Error)
	}
}
