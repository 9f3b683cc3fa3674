package serve

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"testing"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// aliasedCache is a report cache holding one rendered report under key,
// with raw as its alias.
func aliasedCache(g *memGovernor, capacity int, key string, raw []byte) (*reportCache, *pipeline.Report) {
	c := newReportCache(g, capacity)
	rep := &pipeline.Report{}
	c.Add(key, rep)
	c.Attach(key, rep, []byte("rendering of "+key))
	c.aliasRaw(key, rep, raw)
	return c, rep
}

// find probes c for one raw request.
func find(c *reportCache, raw []byte) ([]byte, bool) {
	bodies := make([][]byte, 1)
	ok := c.serveRaw(false, [][]byte{raw}, bodies, new(histogram))
	return bodies[0], ok
}

// The alias index trusts no hash: an index entry planted under the probe's
// hash but holding other bytes must not answer it. A lookup that skipped the
// byte comparison would serve another request's rendering here.
func TestAliasComparesBytes(t *testing.T) {
	recorded, probe := []byte(`{"personal":"a(b)"}`), []byte(`{"personal":"a(c)"}`)
	c, _ := aliasedCache(newGovernor(0), 4, "k", recorded)
	if body, ok := find(c, recorded); !ok || string(body) != "rendering of k" {
		t.Fatalf("the recorded bytes found %q, %v", body, ok)
	}
	s := c.space
	s.aliases[maphash.Bytes(s.seed, probe)] = s.aliases[maphash.Bytes(s.seed, recorded)]
	if body, ok := find(c, probe); ok {
		t.Errorf("bytes that only share a hash with an alias were answered %q", body)
	}
}

// An alias is recorded only for an entry that is resident, holds the
// caller's report and has a rendering; an entry takes at most maxAliases,
// each charged to it; and a disabled cache records and finds nothing.
func TestAliasRecording(t *testing.T) {
	g := newGovernor(0)
	c := newReportCache(g, 4)
	rep := &pipeline.Report{}
	c.Add("k", rep)
	c.aliasRaw("k", rep, []byte("before the rendering"))
	c.Attach("k", rep, []byte("rendering"))
	c.aliasRaw("k", &pipeline.Report{}, []byte("another report"))
	c.aliasRaw("absent", rep, []byte("no entry"))
	for _, raw := range []string{"before the rendering", "another report", "no entry"} {
		if _, ok := find(c, []byte(raw)); ok {
			t.Errorf("%q was recorded", raw)
		}
	}
	base := c.Bytes()
	var raws [][]byte
	for i := 0; i < maxAliases+2; i++ {
		raw := []byte(fmt.Sprintf(`{"personal":"a(b%d)"}`, i))
		raws = append(raws, raw)
		c.aliasRaw("k", rep, raw)
		c.aliasRaw("k", rep, raw) // a repeat changes nothing
	}
	var charged int64
	for i, raw := range raws {
		_, ok := find(c, raw)
		if ok != (i < maxAliases) {
			t.Errorf("alias %d found: %v", i, ok)
		}
		if ok {
			charged += int64(len(raw)) + aliasSlack
		}
	}
	if c.Bytes() != base+charged {
		t.Errorf("Bytes = %d, want %d for the entry and %d for its aliases", c.Bytes(), base, charged)
	}
	auditGovernor(t, g)

	off, _ := aliasedCache(g, -1, "k", raws[0])
	if _, ok := find(off, raws[0]); ok || len(off.space.aliases) != 0 {
		t.Error("a disabled cache recorded or found an alias")
	}
}

// Eviction takes an entry's aliases with it, and their charge: for the
// entry-count cap, for the byte budget, and for an alias whose own charge
// breaks the budget.
func TestAliasesLeaveWithTheirEntry(t *testing.T) {
	raw := []byte(`{"personal":"book(title,author)"}`)
	evicted := func(t *testing.T, g *memGovernor, c *reportCache) {
		t.Helper()
		if _, ok := find(c, raw); ok {
			t.Error("an evicted entry's alias still answers")
		}
		if len(c.space.aliases) != 0 {
			t.Errorf("%d aliases left in the index", len(c.space.aliases))
		}
		if used := auditGovernor(t, g); used != c.Bytes() {
			t.Errorf("governor holds %d bytes, the cache %d", used, c.Bytes())
		}
	}
	t.Run("entry cap", func(t *testing.T) {
		g := newGovernor(0)
		c, _ := aliasedCache(g, 1, "k", raw)
		if _, ok := find(c, raw); !ok {
			t.Fatal("alias not recorded")
		}
		c.Add("other", &pipeline.Report{})
		evicted(t, g, c)
		if c.Bytes() != reportBytes(&pipeline.Report{}) {
			t.Errorf("Bytes = %d, want the remaining bare report's", c.Bytes())
		}
	})
	t.Run("byte budget", func(t *testing.T) {
		withAlias := reportBytes(&pipeline.Report{}) + int64(len("rendering of k")+len(raw)) + aliasSlack
		g := newGovernor(withAlias + 10)
		c, _ := aliasedCache(g, 4, "k", raw)
		if _, ok := find(c, raw); !ok || c.Bytes() != withAlias {
			t.Fatalf("alias not recorded and charged: %d bytes, want %d", c.Bytes(), withAlias)
		}
		c.Add("other", &pipeline.Report{})
		evicted(t, g, c)
	})
	t.Run("the alias's own charge", func(t *testing.T) {
		g := newGovernor(reportBytes(&pipeline.Report{}) + int64(len("rendering of k")) + 10)
		c, _ := aliasedCache(g, 4, "k", raw)
		evicted(t, g, c)
		if c.Len() != 0 {
			t.Error("the entry outgrew the budget and stayed")
		}
	})
}

// Aliases stay exact while entries come and go: goroutines send four
// requests' bytes through CachedJSON and, on a miss, MatchJSON into a
// two-entry cache that evicts all the time. Every answer must be its own
// request's rendering, and the governor's account must hold, aliases
// included.
func TestAliasConcurrentHitMissEvict(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 2, CacheSize: 2})
	defer s.Close()
	ctx := context.Background()
	specs := []string{"book(title,author)", "customer(name,email)", "item(name,price)", "publisher(name,address)"}
	raws := make([][]byte, len(specs))
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		raws[i] = []byte(fmt.Sprintf(`{"personal":%q}`, spec))
		body, err := s.MatchJSON(ctx, schema.MustParseSpec(spec), testOpts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = untimed(body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bodies := make([][]byte, 1)
			for n := 0; n < 100; n++ {
				i := (g + n*(g+1)) % len(specs)
				var body []byte
				hit := s.CachedJSON(raws[i:i+1], bodies)
				if hit {
					body = bodies[0]
				} else {
					var err error
					if body, err = s.MatchJSON(ctx, schema.MustParseSpec(specs[i]), testOpts(), raws[i]); err != nil {
						t.Error(err)
						return
					}
				}
				if !bytes.Equal(untimed(body), want[i]) {
					t.Errorf("request %d (hit %v) answered with another rendering:\n%s", i, hit, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	auditGovernor(t, s.gov)
	if st := s.Stats(); st.CacheEvictions == 0 || st.CacheHits == 0 {
		t.Errorf("%d evictions, %d hits: the test did not evict and hit", st.CacheEvictions, st.CacheHits)
	}
}

// untimed cuts a rendering before its stage timings, the one part two runs
// of a request render differently.
func untimed(body []byte) []byte {
	if i := bytes.Index(body, []byte(`"match_ms"`)); i >= 0 {
		return body[:i]
	}
	return body
}
