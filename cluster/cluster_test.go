package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoz/internal/grid"
	"qoz/store"
)

// TestPlacementDeterministic pins the placement's core contract: the
// owner of a brick is a pure function of (shard set, field, brick) —
// independent of shard order — and Rank is a total preference order
// starting at the owner.
func TestPlacementDeterministic(t *testing.T) {
	shards := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	p1, err := NewPlacement(shards)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlacement([]string{shards[2], shards[0], shards[1]})
	if err != nil {
		t.Fatal(err)
	}
	for brick := 0; brick < 256; brick++ {
		o1 := shards[p1.Owner("temp", brick)]
		o2 := p2.Shards()[p2.Owner("temp", brick)]
		if o1 != o2 {
			t.Fatalf("brick %d: owner %s with one order, %s with another", brick, o1, o2)
		}
		r1 := p1.Rank("temp", brick)
		if len(r1) != len(shards) {
			t.Fatalf("brick %d: rank covers %d shards, want %d", brick, len(r1), len(shards))
		}
		if r1[0] != p1.Owner("temp", brick) {
			t.Fatalf("brick %d: rank[0] = %d, owner = %d", brick, r1[0], p1.Owner("temp", brick))
		}
		seen := map[int]bool{}
		for _, i := range r1 {
			if seen[i] {
				t.Fatalf("brick %d: shard %d appears twice in rank", brick, i)
			}
			seen[i] = true
		}
	}
}

// TestPlacementBalanceAndStability checks the two properties that make
// rendezvous hashing worth its hash calls: bricks spread roughly evenly,
// and removing one shard relocates only that shard's bricks.
func TestPlacementBalanceAndStability(t *testing.T) {
	shards := []string{"http://a:8080", "http://b:8080", "http://c:8080", "http://d:8080"}
	p, err := NewPlacement(shards)
	if err != nil {
		t.Fatal(err)
	}
	const bricks = 4096
	counts := make([]int, len(shards))
	owners := make([]int, bricks)
	for b := 0; b < bricks; b++ {
		owners[b] = p.Owner("temp", b)
		counts[owners[b]]++
	}
	want := bricks / len(shards)
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("shard %d owns %d of %d bricks; want within [%d, %d]", i, c, bricks, want/2, want*2)
		}
	}

	// Drop shard d: every brick d did not own must keep its owner.
	reduced, err := NewPlacement(shards[:3])
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for b := 0; b < bricks; b++ {
		if shards[owners[b]] == shards[3] {
			moved++
			continue
		}
		if got := reduced.Shards()[reduced.Owner("temp", b)]; got != shards[owners[b]] {
			t.Fatalf("brick %d moved from %s to %s though its shard survived", b, shards[owners[b]], got)
		}
	}
	if moved == 0 {
		t.Fatal("shard d owned nothing; balance test is vacuous")
	}

	// Different fields must spread differently (one hot field cannot pin
	// the same shard for every other field's brick 0).
	diff := 0
	for b := 0; b < 64; b++ {
		if p.Owner("temp", b) != p.Owner("pressure", b) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("placement identical across field names; field should participate in the hash")
	}
}

func TestPlacementValidates(t *testing.T) {
	if _, err := NewPlacement(nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewPlacement([]string{"a", ""}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := NewPlacement([]string{"a", "a"}); err == nil {
		t.Error("duplicate shard accepted")
	}
}

// TestFlightCoalesces drives N concurrent callers at one key and verifies
// exactly one execution serves them all.
func TestFlightCoalesces(t *testing.T) {
	var f Flight
	var execs atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, _, err := f.Do(context.Background(), "hot", func(context.Context) (any, error) {
				execs.Add(1)
				<-release
				return "slab", nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}()
	}
	// Let the herd pile up behind the leader, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions for %d concurrent callers, want 1", n, callers)
	}
	for i, v := range results {
		if v != "slab" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	st := f.Stats()
	if st.Leads != 1 || st.Coalesced != callers-1 {
		t.Fatalf("stats %+v, want 1 lead and %d coalesced", st, callers-1)
	}

	// The key was forgotten: a later call executes afresh.
	if _, shared, _, _ := f.Do(context.Background(), "hot", func(context.Context) (any, error) {
		execs.Add(1)
		return "slab2", nil
	}); shared {
		t.Error("post-completion call reported shared")
	}
	if execs.Load() != 2 {
		t.Error("post-completion call did not re-execute")
	}
}

// TestFlightCancellation pins the refcounted-cancel contract: one waiter
// leaving does not disturb the rest, but the last waiter leaving cancels
// the execution.
func TestFlightCancellation(t *testing.T) {
	var f Flight
	started := make(chan struct{})
	execCtx := make(chan context.Context, 1)
	fn := func(ctx context.Context) (any, error) {
		execCtx <- ctx
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, _, _, err := f.Do(ctx1, "k", fn)
		errs <- err
	}()
	<-started
	go func() {
		_, _, _, err := f.Do(ctx2, "k", fn)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)

	// First caller bails; the execution must keep running for the second.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed caller got %v, want context.Canceled", err)
	}
	run := <-execCtx
	select {
	case <-run.Done():
		t.Fatal("execution cancelled while a waiter remains")
	case <-time.After(50 * time.Millisecond):
	}

	// Last caller bails; now the execution must be cancelled.
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("last caller got %v, want context.Canceled", err)
	}
	select {
	case <-run.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("execution not cancelled after the last waiter left")
	}
}

// TestFlightConcurrentKeys hammers many goroutines across a few keys
// under the race detector.
func TestFlightConcurrentKeys(t *testing.T) {
	var f Flight
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			v, _, _, err := f.Do(context.Background(), key, func(context.Context) (any, error) {
				time.Sleep(time.Millisecond)
				return key, nil
			})
			if err != nil || v != key {
				t.Errorf("key %s: v=%v err=%v", key, v, err)
			}
		}()
	}
	wg.Wait()
}

// TestLimiter exercises the token bucket arithmetic with a synthetic
// clock: burst spends, refill restores, Retry-After predicts the next
// token, and tenants are independent.
func TestLimiter(t *testing.T) {
	l := NewLimiter(2, 4) // 2 rps, burst 4
	now := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		if ok, _ := l.Allow("alice", now); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := l.Allow("alice", now)
	if ok {
		t.Fatal("5th immediate request allowed past burst 4")
	}
	if want := 500 * time.Millisecond; retry != want {
		t.Fatalf("Retry-After %v, want %v (1 token at 2 rps)", retry, want)
	}
	// Another tenant is untouched by alice's dry bucket.
	if ok, _ := l.Allow("bob", now); !ok {
		t.Fatal("bob refused because alice is over rate")
	}
	// After the advertised wait, exactly one token is back.
	now = now.Add(retry)
	if ok, _ := l.Allow("alice", now); !ok {
		t.Fatal("request refused after waiting the advertised Retry-After")
	}
	if ok, _ := l.Allow("alice", now); ok {
		t.Fatal("second request allowed though only one token refilled")
	}
	if l.Limited() != 2 {
		t.Fatalf("Limited() = %d, want 2", l.Limited())
	}
}

func TestLimiterOverridesAndDefaults(t *testing.T) {
	// Unlimited default limiter allows everything.
	free := NewLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := free.Allow("anyone", time.Unix(0, 0)); !ok {
			t.Fatal("unlimited limiter refused a request")
		}
	}
	// Nil limiter is a no-op.
	var nilL *Limiter
	if ok, _ := nilL.Allow("x", time.Time{}); !ok {
		t.Fatal("nil limiter refused")
	}

	l := NewLimiter(1, 1)
	l.SetTenant("vip", RateConfig{RPS: -1}) // exempt
	now := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		if ok, _ := l.Allow("vip", now); !ok {
			t.Fatal("exempt tenant refused")
		}
	}
	l.Allow("pleb", now)
	if ok, _ := l.Allow("pleb", now); ok {
		t.Fatal("default tenant not limited at 1 burst")
	}

	// Burst defaults to max(1, ceil(RPS)).
	l2 := NewLimiter(2.5, 0)
	now2 := time.Unix(0, 0)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l2.Allow("t", now2); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("burst defaulted to %d, want ceil(2.5) = 3", allowed)
	}
}

// TestCatalogValidatesReportedFields: a shard's /v1/fields answer is outside
// input. A field whose dims and brick are not a brick grid — rank past the
// box walk's fixed arrays, ranks that disagree, a non-positive brick extent,
// nothing at all — is left out when the catalog is built, beside a good
// field that stays; planning over it is refused, never an index panic. So
// is a field whose dtype is not float32 or float64 (the element size of
// every stitched body) or whose bound is not positive, and a null entry.
func TestCatalogValidatesReportedFields(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"fields":[
			{"name":"good","dims":[8,8],"brick":[4,4],"dtype":"float32","errorBound":0.001,"generation":1},
			{"name":"rank9","dims":[2,2,2,2,2,2,2,2,2],"brick":[1,1,1,1,1,1,1,1,1],"dtype":"float32","errorBound":0.001,"generation":1},
			{"name":"mismatch","dims":[8,8,8],"brick":[4,4],"dtype":"float32","errorBound":0.001,"generation":1},
			{"name":"zerobrick","dims":[8,8],"brick":[4,0],"dtype":"float32","errorBound":0.001,"generation":1},
			{"name":"empty","dtype":"float32","errorBound":0.001,"generation":1},
			{"name":"half","dims":[8,8],"brick":[4,4],"dtype":"float16","errorBound":0.001,"generation":1},
			{"name":"nodtype","dims":[8,8],"brick":[4,4],"errorBound":0.001,"generation":1},
			{"name":"zerobound","dims":[8,8],"brick":[4,4],"dtype":"float64","errorBound":0,"generation":1},
			{"name":"negbound","dims":[8,8],"brick":[4,4],"dtype":"float64","errorBound":-1,"generation":1},
			null]}`)
	}))
	defer shard.Close()
	var c Client
	catalog, dropped, err := c.CatalogReport(context.Background(), []string{shard.URL})
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 1 || catalog["good"] == nil {
		t.Fatalf("catalog holds %v, want only the field whose grid, dtype and bound validate", catalog)
	}
	// Every report left out comes back, naming its shard and field.
	if len(dropped) != 9 {
		t.Fatalf("%d reports dropped, want the 9 unusable ones: %v", len(dropped), dropped)
	}
	for i, name := range []string{"rank9", "mismatch", "zerobrick", "empty", "half", "nodtype", "zerobound", "negbound", ""} {
		if msg := dropped[i].Error(); !strings.HasPrefix(msg, shard.URL+": field "+strconv.Quote(name)+": ") {
			t.Errorf("dropped report %d reads %q; want it to name the shard and field %q", i, msg, name)
		}
	}
	if _, err := planSubRegions(catalog["good"], []int{1, 1}, []int{7, 7}); err != nil {
		t.Errorf("good field: %v", err)
	}
	// A Field assembled by hand skips the catalog; the plan still refuses it.
	bad := &Field{Name: "rank9", Dims: make([]int, 9), Brick: make([]int, 9), Shards: []string{"a", "b"}}
	if _, err := planSubRegions(bad, make([]int, 9), make([]int, 9)); err == nil {
		t.Error("a rank-9 field was planned")
	}
	if _, _, err := c.ReadBoxesRaw(context.Background(), catalog["good"], []store.Box{{Lo: []int{0, 0}, Hi: []int{8, 8}}}, store.MaxReadLevel+1); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprint("1..", store.MaxReadLevel)) {
		t.Errorf("level past store.MaxReadLevel: %v", err)
	}
}

// TestPlanSubRegionsPartition checks the plan invariant the lock-free
// stitch depends on: sub-regions are disjoint and cover the request
// exactly, and each sub-region's bricks all route to rank[0]'s shard.
func TestPlanSubRegionsPartition(t *testing.T) {
	f := &Field{
		Name:   "temp",
		Dims:   []int{12, 20, 20},
		Brick:  []int{5, 8, 8},
		DType:  "float32",
		Shards: []string{"http://a", "http://b", "http://c"},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lo := make([]int, 3)
		hi := make([]int, 3)
		for i, d := range f.Dims {
			a, b := rng.Intn(d), rng.Intn(d)
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b+1
		}
		subs, err := planSubRegions(f, lo, hi)
		if err != nil {
			t.Fatalf("[%v,%v): %v", lo, hi, err)
		}
		// Paint the region; every point must be painted exactly once.
		shape := []int{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]}
		paint := make([]int, shape[0]*shape[1]*shape[2])
		for _, s := range subs {
			if len(s.rank) != len(f.Shards) {
				t.Fatalf("sub rank %v does not span all shards", s.rank)
			}
			for z := s.lo[0]; z < s.hi[0]; z++ {
				for y := s.lo[1]; y < s.hi[1]; y++ {
					for x := s.lo[2]; x < s.hi[2]; x++ {
						idx := ((z-lo[0])*shape[1]+(y-lo[1]))*shape[2] + (x - lo[2])
						paint[idx]++
					}
				}
			}
		}
		for i, c := range paint {
			if c != 1 {
				t.Fatalf("[%v,%v): point %d painted %d times", lo, hi, i, c)
			}
		}
	}
}

// TestStitchBytes scatters shuffled sub-slabs into an output and compares
// against a directly-assembled reference, in several ranks and element
// widths.
func TestStitchBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		dims  []int
		brick []int
		elem  int
	}{
		{[]int{17}, []int{4}, 4},
		{[]int{9, 13}, []int{4, 5}, 8},
		{[]int{6, 7, 8}, []int{3, 3, 3}, 4},
		{[]int{3, 4, 5, 6}, []int{2, 2, 2, 2}, 8},
		{[]int{2, 2, 2, 2, 2, 2, 3, 5}, []int{1, 2, 1, 2, 1, 2, 2, 3}, 4}, // grid.MaxRank
	} {
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		want := make([]byte, n*tc.elem)
		rng.Read(want)

		got := make([]byte, len(want))
		f := &Field{Name: "f", Dims: tc.dims, Brick: tc.brick, Shards: []string{"a", "b"}}
		lo := make([]int, len(tc.dims))
		subs, err := planSubRegions(f, lo, tc.dims)
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
		for _, s := range subs {
			srcDims := make([]int, len(tc.dims))
			for i := range srcDims {
				srcDims[i] = s.hi[i] - s.lo[i]
			}
			// Gather the sub-slab from the reference (what the shard would
			// serve), then scatter it through stitch.
			src := gatherBytes(want, tc.dims, s.lo, srcDims, tc.elem)
			og, _ := grid.LevelOf(lo, tc.dims, 1)
			g, _ := grid.LevelOf(s.lo, s.hi, 1)
			stitch(got, &og, src, &g, len(tc.dims), tc.elem)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("dims %v elem %d: stitched bytes differ from reference", tc.dims, tc.elem)
		}
	}
}

// gatherBytes is the test-side inverse of stitch: copy the box at
// srcLo (shape boxDims) out of a row-major volume.
func gatherBytes(src []byte, dims, srcLo, boxDims []int, elem int) []byte {
	n := 1
	for _, d := range boxDims {
		n *= d
	}
	out := make([]byte, n*elem)
	idx := make([]int, len(dims))
	for flat := 0; flat < n; flat += boxDims[len(dims)-1] {
		so := 0
		for i, d := range dims {
			_ = d
			pos := srcLo[i] + idx[i]
			stride := elem
			for j := len(dims) - 1; j > i; j-- {
				stride *= dims[j]
			}
			so += pos * stride
		}
		run := boxDims[len(dims)-1] * elem
		copy(out[flat*elem:flat*elem+run], src[so:so+run])
		for k := len(dims) - 2; k >= 0; k-- {
			idx[k]++
			if idx[k] < boxDims[k] {
				break
			}
			idx[k] = 0
		}
	}
	return out
}

// TestWeightIsFNV1a pins the hand-rolled hash to hash/fnv's, which it
// replaced: a different weight would re-place every brick of every fleet.
func TestWeightIsFNV1a(t *testing.T) {
	for _, shard := range []string{"http://a:8080", "http://127.0.0.1:47611", "s"} {
		for _, field := range []string{"temp", "", "nyx-0"} {
			for _, brick := range []int{0, 1, 255, 256, 1 << 20, 1<<40 + 3} {
				h := fnv.New64a()
				h.Write([]byte(shard))
				h.Write([]byte{0})
				h.Write([]byte(field))
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(brick))
				h.Write(b[:])
				if got := weight(shard, field, brick); got != h.Sum64() {
					t.Fatalf("weight(%q, %q, %d) = %x, FNV-1a gives %x", shard, field, brick, got, h.Sum64())
				}
			}
		}
	}
}

// TestRankTwoShards: the allocation-free two-shard order is the order the
// general sort gives, and really allocates nothing.
func TestRankTwoShards(t *testing.T) {
	names := []string{"http://127.0.0.1:47611", "http://127.0.0.1:47612"}
	p, err := NewPlacement(names)
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewPlacement(append(names, "http://127.0.0.1:47613"))
	if err != nil {
		t.Fatal(err)
	}
	firsts := map[int]int{}
	for brick := 0; brick < 512; brick++ {
		var want []int // the three-shard order with the third shard dropped
		for _, i := range three.Rank("f", brick) {
			if i < 2 {
				want = append(want, i)
			}
		}
		got := p.Rank("f", brick)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("brick %d: two-shard rank %v, sorted rank %v", brick, got, want)
		}
		if got[0] != p.Owner("f", brick) {
			t.Fatalf("brick %d: rank %v, owner %d", brick, got, p.Owner("f", brick))
		}
		firsts[got[0]]++
	}
	if len(firsts) != 2 {
		t.Fatalf("512 bricks all ranked alike: %v", firsts)
	}
	if n := testing.AllocsPerRun(100, func() { p.Rank("f", 7) }); n != 0 {
		t.Errorf("two-shard Rank allocates %.0f times per call", n)
	}
}

// TestGroupTrips pins how a round is cut into round trips: one per target
// shard while a shard's boxes stay under both caps, more above either, a
// box larger than the byte cap alone, every pending box in exactly one
// trip, and boxes bound for different shards never together.
func TestGroupTrips(t *testing.T) {
	mk := func(n int, shardOf func(k int) int, bytesOf func(k int) int) ([]subRegion, []int) {
		subs := make([]subRegion, n)
		pending := make([]int, n)
		for k := range subs {
			sh := shardOf(k)
			subs[k] = subRegion{rank: []int{sh, (sh + 1) % 3, (sh + 2) % 3}, bytes: bytesOf(k)}
			pending[k] = k
		}
		return subs, pending
	}
	for _, tc := range []struct {
		name    string
		n       int
		shardOf func(k int) int
		bytesOf func(k int) int
		round   int
		trips   int
	}{
		{"two owners under both caps", 8, func(k int) int { return k % 2 }, func(int) int { return 16 << 10 }, 0, 2},
		{"exactly the byte cap", 4, func(int) int { return 0 }, func(int) int { return roundTripBytes / 4 }, 0, 1},
		{"one byte over", 4, func(int) int { return 0 }, func(k int) int { return roundTripBytes/4 + k/3 }, 0, 2},
		{"a list of 1 MiB", 8, func(k int) int { return k % 2 }, func(int) int { return 128 << 10 }, 0, 4},
		{"a box above the cap travels alone", 3, func(int) int { return 1 }, func(k int) int { return []int{8, 4 << 20, 8}[k] }, 0, 3},
		{"exactly the box cap", roundTripBoxes, func(int) int { return 2 }, func(int) int { return 4 }, 0, 1},
		{"a thin line: 150 boxes on one shard", 150, func(int) int { return 0 }, func(int) int { return 4 }, 0, 3},
		{"next round regroups by the next choice", 8, func(k int) int { return k % 2 }, func(int) int { return 1 << 10 }, 1, 2},
	} {
		subs, pending := mk(tc.n, tc.shardOf, tc.bytesOf)
		trips := groupTrips(subs, pending, tc.round, roundTripBoxes)
		if len(trips) != tc.trips {
			t.Errorf("%s: %d round trips, want %d", tc.name, len(trips), tc.trips)
		}
		seen := make([]int, tc.n)
		for _, trip := range trips {
			bytes := 0
			for _, k := range trip {
				seen[k]++
				bytes += subs[k].bytes
				if subs[k].rank[tc.round] != subs[trip[0]].rank[tc.round] {
					t.Errorf("%s: a trip mixes shards", tc.name)
				}
			}
			if len(trip) > roundTripBoxes || (len(trip) > 1 && bytes > roundTripBytes) {
				t.Errorf("%s: a trip of %d boxes and %d bytes is over a cap", tc.name, len(trip), bytes)
			}
		}
		for k, c := range seen {
			if c != 1 {
				t.Errorf("%s: box %d is in %d trips", tc.name, k, c)
			}
		}
	}
	// Sub-queries: no body bytes, one box per round trip.
	subs, pending := mk(8, func(k int) int { return k % 2 }, func(int) int { return 0 })
	if trips := groupTrips(subs, pending, 0, 1); len(trips) != len(subs) {
		t.Errorf("%d sub-queries in %d round trips, want one each", len(subs), len(trips))
	}
}
