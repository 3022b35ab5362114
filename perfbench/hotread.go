package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"github.com/ppdp/ppdp/internal/store"
)

// Hot-read operation mix: hitShare of the operations are cache-hit
// anonymize requests, the rest JSON row pages of stored releases.
const (
	hitShare  = 0.8
	pageLimit = 50
	pageSet   = 64   // distinct (release, offset) pages
	opCycle   = 4096 // seeded operations per client, then repeated
)

// hotRead drives the read side: every anonymize request is answered from
// the result cache and every page read serves a stored release, so the
// algorithms do no work and the time goes to HTTP, prepare, the cache, the
// job record and JSON encoding.
type hotRead struct {
	in   *inputs
	dirs dataDirs
	// bodies are the anonymize bodies (cache allowed, nothing stored);
	// cold holds the response of the run that filled the cache for each.
	bodies [][]byte
	cold   [][]byte
	// pages are the seeded page requests; pageRefs their checked bodies.
	pages    []pageReq
	pageRefs [][]byte
	// ops is each client's seeded operation sequence: a mix index, or
	// len(mix)+j for page j.
	ops [][]int
}

type pageReq struct {
	item, offset int
	path         string
}

// hotSpec keeps one more release of census-5k published through the
// reconciler, so that the store and the reconciler take part in set-up and
// the restart check.
var hotSpec = spec{name: "census-5k-k10", item: mixItem{
	label: "census-5k mondrian k=10 (spec)", dataset: "census-5k", algorithm: "mondrian", policy: kPolicy(10, 0), k: 10}}

func newHotRead(in *inputs, work string) bench {
	b := &hotRead{in: in, dirs: dataDirs{work: work}}
	for _, m := range in.mix {
		b.bodies = append(b.bodies, m.anonymizeBody(false, false))
	}
	for j := 0; j < pageSet; j++ {
		item := in.rng.Intn(len(in.mix))
		// Offsets stay in the first 90% of the input rows: datafly and
		// samarati may suppress up to 2% of them.
		rows := in.dataset(in.mix[item].dataset).table.Len()
		b.pages = append(b.pages, pageReq{item: item, offset: in.rng.Intn(rows*9/10 - pageLimit)})
	}
	for c := 0; c < clients; c++ {
		seq := make([]int, opCycle)
		for i := range seq {
			if in.rng.Float64() < hitShare {
				seq[i] = in.rng.Intn(len(in.mix))
			} else {
				seq[i] = len(in.mix) + in.rng.Intn(pageSet)
			}
		}
		b.ops = append(b.ops, seq)
	}
	return b
}

func (b *hotRead) route() string { return "POST /v1/anonymize" }

// setup runs on a fresh data directory: the stored releases are journaled,
// and finish checks that they survive a restart.
func (b *hotRead) setup() (*service, error) {
	cfg, err := b.dirs.next()
	if err != nil {
		return nil, err
	}
	return openSeeded(cfg, b.seed)
}

// seed uploads the datasets, fills the cache with every mix request (the
// cold response is checked for its privacy level), stores one release per
// request and checks every seeded page against the release's full CSV.
func (b *hotRead) seed(svc *service) error {
	if err := uploadAll(svc, b.in); err != nil {
		return err
	}
	b.cold = b.cold[:0]
	releases := make([]string, len(b.in.mix))
	for i, m := range b.in.mix {
		body, err := svc.expect(http.StatusOK, "POST", "/v1/anonymize", "", "application/json", b.bodies[i])
		if err != nil {
			return err
		}
		if err := checkLevel(m, body); err != nil {
			return err
		}
		b.cold = append(b.cold, body)
		stored, err := svc.expect(http.StatusOK, "POST", "/v1/anonymize", "", "application/json", m.anonymizeBody(false, true))
		if err != nil {
			return err
		}
		var r anonymizeReply
		if err := json.Unmarshal(stored, &r); err != nil {
			return err
		}
		releases[i] = r.ReleaseID
	}
	if err := checkAnatomy(svc, b.in); err != nil {
		return err
	}
	if err := hotSpec.declare(svc); err != nil {
		return err
	}
	full := make([][][]string, len(b.in.mix))
	for i, id := range releases {
		data, err := svc.expect(http.StatusOK, "GET", "/v1/releases/"+id+"/data", "", "", nil)
		if err != nil {
			return err
		}
		if full[i], err = csv.NewReader(bytes.NewReader(data)).ReadAll(); err != nil {
			return err
		}
	}
	b.pageRefs = b.pageRefs[:0]
	for j := range b.pages {
		p := &b.pages[j]
		p.path = fmt.Sprintf("/v1/releases/%s/data?limit=%d&offset=%d", releases[p.item], pageLimit, p.offset)
		body, err := svc.expect(http.StatusOK, "GET", p.path, "application/json", "", nil)
		if err != nil {
			return err
		}
		var page struct {
			Header []string   `json:"header"`
			Data   [][]string `json:"data"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return err
		}
		rows := full[p.item]
		want := rows[1+p.offset : 1+min(p.offset+pageLimit, len(rows)-1)]
		if !reflect.DeepEqual(page.Header, rows[0]) || !reflect.DeepEqual(page.Data, want) {
			return fmt.Errorf("%w: page %s differs from the release CSV", errCheck, p.path)
		}
		b.pageRefs = append(b.pageRefs, body)
	}
	return nil
}

// hotReadRoundTrips is hot-read's weight of the host probe's round-trip
// part (hostspeed.go). Its operations are sub-millisecond loopback HTTP
// exchanges; in ten 12 s runs on the sized host its time metrics scaled by
// the round-trip part spread by 0.07-0.10 of their medians, by the
// computation part by 0.08-0.15, and unscaled by 0.23-0.31.
const hotReadRoundTrips = 1

func (b *hotRead) run(svc *service, d time.Duration) *phase {
	return closedLoopPhase(clients, d, hotReadRoundTrips, func(c, i int) outcome {
		op := b.ops[c][i%opCycle]
		var (
			status int
			body   []byte
			err    error
			want   []byte
			what   string
		)
		start := time.Now()
		if op < len(b.bodies) {
			status, body, err = svc.do("POST", "/v1/anonymize", "", "application/json", b.bodies[op])
			want, what = b.cold[op], b.in.mix[op].label
		} else {
			p := b.pages[op-len(b.bodies)]
			status, body, err = svc.do("GET", p.path, "application/json", "", nil)
			want, what = b.pageRefs[op-len(b.bodies)], p.path
		}
		lat := time.Since(start)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", what, status, bytes.TrimSpace(body))
		}
		if err == nil && !bytes.Equal(body, want) {
			err = fmt.Errorf("%s: %w: response is not byte-identical to the cold response", what, errCheck)
		}
		return outcome{latency: lat, bytes: len(body), err: err}
	})
}

// finish restarts the service on its data directory: the spec's release
// must survive, and every seeded page of the stored releases must read back
// byte-identical.
func (b *hotRead) finish(svc *service, ph *phase) (*service, error) {
	svc, _, err := restart(svc, b.dirs.cur, hotSpec, ph)
	if err != nil {
		return svc, err
	}
	for j, p := range b.pages {
		body, err := svc.expect(http.StatusOK, "GET", p.path, "application/json", "", nil)
		if err != nil {
			return svc, err
		}
		if !bytes.Equal(body, b.pageRefs[j]) {
			return svc, fmt.Errorf("%w: page %s differs after restart", errCheck, p.path)
		}
	}
	return svc, nil
}

// replay repeats set-up on a store of its own — the journaled uploads, the
// runs that fill the cache (checked against core and the service), the
// stored releases and the spec's publication — then the first
// hotReplayOps operations of client 0.
func (b *hotRead) replay(tr *tracer, dir string) error {
	st, err := openReplayStore(tr, dir)
	if err != nil {
		return err
	}
	defer st.close()
	tables := map[string]*replayTable{}
	for _, d := range b.in.datasets {
		rt := &replayTable{family: d.family.Name, hier: d.family.Hierarchies()}
		root := tr.root("upload " + d.name)
		rt.table, err = st.ingest(d, 1, rt, d.csv)
		tr.end(root)
		if err != nil {
			return err
		}
		tables[d.name] = rt
	}
	cache := newReplayCache(tr)
	released := make([]*replayRelease, len(b.in.mix))
	for i, m := range b.in.mix {
		rel, err := replayRequest(tr, tables[m.dataset], m)
		if err != nil {
			return err
		}
		if err := rel.check(tables[m.dataset], m, stripElapsed(b.cold[i])); err != nil {
			return err
		}
		cache.put(tables[m.dataset], m, rel)
		released[i] = rel
	}
	for i, rel := range released {
		root := tr.root("store release " + b.in.mix[i].label)
		err := st.put(store.KindRelease, fmt.Sprintf("r%d", i+1), 1, rel.res.Table, rel.res.QIT, rel.res.ST)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	if _, err := st.publish(tables[hotSpec.item.dataset], hotSpec, 1); err != nil {
		return err
	}
	// A hit runs prepare and the cache lookup; a page read slices the
	// stored release.
	for _, op := range b.ops[0][:hotReplayOps] {
		if op < len(b.in.mix) {
			m := b.in.mix[op]
			if err := cache.hit(tables[m.dataset], m); err != nil {
				return err
			}
			continue
		}
		p := b.pages[op-len(b.in.mix)]
		replayPage(tr, released[p.item], p.offset, pageLimit)
	}
	return nil
}

const hotReplayOps = 400
