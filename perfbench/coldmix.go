package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"github.com/ppdp/ppdp/internal/server"
)

// clients is the closed-loop concurrency: one client per CPU of the 2-vCPU
// host the benchmark was sized on.
const clients = 2

// coldMix drives POST /v1/anonymize with no_cache, so every request runs its
// algorithm: the time goes to the algorithms, generalization, measurement,
// the dataset kernels and GC, while HTTP and the cache stay small.
type coldMix struct {
	in *inputs
	// bodies are the request bodies; refs the expected response bodies with
	// elapsed_ms cut out, taken at set-up once their privacy level checked.
	bodies [][]byte
	refs   [][]byte
}

func newColdMix(in *inputs, _ string) bench {
	b := &coldMix{in: in}
	for _, m := range in.mix {
		b.bodies = append(b.bodies, m.anonymizeBody(true, false))
	}
	return b
}

func (b *coldMix) route() string { return "POST /v1/anonymize" }

func (b *coldMix) setup() (*service, error) { return openSeeded(server.Config{}, b.seed) }

// seed uploads the datasets and runs every mix request once: the reference
// responses are checked for their privacy level, and lazily built column
// caches of the stored tables are filled before timing starts.
func (b *coldMix) seed(svc *service) error {
	if err := uploadAll(svc, b.in); err != nil {
		return err
	}
	b.refs = b.refs[:0]
	for i, m := range b.in.mix {
		body, err := svc.expect(http.StatusOK, "POST", "/v1/anonymize", "", "application/json", b.bodies[i])
		if err != nil {
			return err
		}
		if err := checkLevel(m, body); err != nil {
			return err
		}
		b.refs = append(b.refs, stripElapsed(body))
	}
	return checkAnatomy(svc, b.in)
}

// coldMixRoundTrips is cold-mix's weight of the host probe's round-trip
// part (hostspeed.go). Its requests compute for tens of milliseconds each;
// in ten 12 s runs on the sized host its time metrics scaled by the
// probe's computation part spread by 0.05-0.08 of their medians, and by
// the round-trip part by 0.11-0.20.
const coldMixRoundTrips = 0

func (b *coldMix) run(svc *service, d time.Duration) *phase {
	return closedLoopPhase(clients, d, coldMixRoundTrips, func(c, i int) outcome {
		// The clients run half a rotation apart, so the two samarati
		// requests, the heaviest of the mix, do not fall into step.
		k := (c*len(b.bodies)/clients + i) % len(b.bodies)
		start := time.Now()
		status, body, err := svc.do("POST", "/v1/anonymize", "", "application/json", b.bodies[k])
		lat := time.Since(start)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", b.in.mix[k].label, status, bytes.TrimSpace(body))
		}
		if err == nil && !bytes.Equal(stripElapsed(body), b.refs[k]) {
			err = fmt.Errorf("%s: %w: response differs from the set-up reference", b.in.mix[k].label, errCheck)
		}
		return outcome{latency: lat, bytes: len(body), err: err}
	})
}

func (b *coldMix) finish(svc *service, _ *phase) (*service, error) { return svc, nil }

func (b *coldMix) replay(tr *tracer, _ string) error {
	tables, err := replayUploads(tr, b.in)
	if err != nil {
		return err
	}
	// Two passes over the mix; the first pass also checks every replayed
	// release against core and against the service's reference response.
	for pass := 0; pass < 2; pass++ {
		for i, m := range b.in.mix {
			rel, err := replayRequest(tr, tables[m.dataset], m)
			if err != nil {
				return err
			}
			if pass == 0 {
				if err := rel.check(tables[m.dataset], m, b.refs[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// openSeeded opens a service and seeds it, closing it again when seeding
// fails.
func openSeeded(cfg server.Config, seed func(*service) error) (*service, error) {
	svc, err := openService(cfg)
	if err != nil {
		return nil, err
	}
	if err := seed(svc); err != nil {
		svc.close()
		return nil, err
	}
	return svc, nil
}

// uploadAll uploads every generated dataset as CSV with PUT.
func uploadAll(svc *service, in *inputs) error {
	for _, d := range in.datasets {
		path := "/v1/datasets/" + d.name + "?family=" + url.QueryEscape(d.family.Name)
		if _, err := svc.expect(http.StatusCreated, "PUT", path, "", "text/csv", d.csv); err != nil {
			return err
		}
	}
	return nil
}

// anonymizeReply is the part of an anonymize response the checks read.
type anonymizeReply struct {
	ReleaseID    string `json:"release_id"`
	Rows         int    `json:"rows"`
	Measurements struct {
		K        int     `json:"k"`
		NCP      float64 `json:"ncp"`
		Criteria map[string]struct {
			Satisfied bool    `json:"satisfied"`
			Measured  float64 `json:"measured"`
		} `json:"criteria"`
	} `json:"measurements"`
}

// checkLevel checks that an anonymize response meets the requested k. The
// l of anatomy releases is checked on the published tables (checkAnatomy):
// anatomy responses carry no measurements.
func checkLevel(m mixItem, body []byte) error {
	var r anonymizeReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: decode response: %w", m.label, err)
	}
	if m.k > 0 {
		c, ok := r.Measurements.Criteria["k-anonymity"]
		if !ok || !c.Satisfied || c.Measured < float64(m.k) || r.Measurements.K < m.k {
			return fmt.Errorf("%s: %w: measured k=%d, want at least %d", m.label, errCheck, r.Measurements.K, m.k)
		}
	}
	if r.Rows <= 0 {
		return fmt.Errorf("%s: %w: empty release", m.label, errCheck)
	}
	return nil
}

// checkAnatomy publishes each anatomy release of the mix once and checks its
// sensitive table: every group holds at least l distinct sensitive values
// and the groups cover every input row.
func checkAnatomy(svc *service, in *inputs) error {
	for _, m := range in.mix {
		if m.algorithm != "anatomy" {
			continue
		}
		body, err := svc.expect(http.StatusOK, "POST", "/v1/anonymize", "", "application/json", m.anonymizeBody(true, true))
		if err != nil {
			return err
		}
		var r anonymizeReply
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		st, err := svc.expect(http.StatusOK, "GET", "/v1/releases/"+r.ReleaseID+"/data?table=st", "", "", nil)
		if err != nil {
			return err
		}
		if err := checkBuckets(st, m.l, in.dataset(m.dataset).table.Len()); err != nil {
			return fmt.Errorf("%s: %w", m.label, err)
		}
		if _, err := svc.expect(http.StatusNoContent, "DELETE", "/v1/releases/"+r.ReleaseID, "", "", nil); err != nil {
			return err
		}
	}
	return nil
}

// checkBuckets checks an anatomy sensitive table (group, value, count).
func checkBuckets(stCSV []byte, l, rows int) error {
	recs, err := csv.NewReader(bytes.NewReader(stCSV)).ReadAll()
	if err != nil || len(recs) < 2 {
		return fmt.Errorf("%w: unreadable sensitive table: %v", errCheck, err)
	}
	distinct := map[string]int{}
	total := 0
	for _, rec := range recs[1:] {
		var n int
		if len(rec) != 3 {
			return fmt.Errorf("%w: sensitive table row %v", errCheck, rec)
		}
		if _, err := fmt.Sscan(rec[2], &n); err != nil || n <= 0 {
			return fmt.Errorf("%w: sensitive table count %q", errCheck, rec[2])
		}
		distinct[rec[0]]++
		total += n
	}
	for g, d := range distinct {
		if d < l {
			return fmt.Errorf("%w: group %s has %d distinct sensitive values, want at least %d", errCheck, g, d, l)
		}
	}
	if total != rows {
		return fmt.Errorf("%w: sensitive table covers %d rows, want %d", errCheck, total, rows)
	}
	return nil
}

// stripElapsed zeroes the "elapsed_ms" value, the one part of an anonymize
// response that differs between two runs of the same request.
func stripElapsed(body []byte) []byte {
	key := []byte(`"elapsed_ms": `)
	i := bytes.Index(body, key)
	if i < 0 {
		return body
	}
	i += len(key)
	j := i
	for j < len(body) && body[j] != ',' && body[j] != '\n' && body[j] != '}' {
		j++
	}
	out := make([]byte, 0, len(body))
	out = append(out, body[:i]...)
	out = append(out, '0')
	return append(out, body[j:]...)
}
