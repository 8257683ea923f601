// Package cluster partitions a StoryPivot deployment across worker
// processes behind a thin scatter-gather router.
//
// The unit of partitioning is the source: identification is per-source
// by construction (internal/identify shards on SourceID already), and
// alignment only ever links stories whose vocabularies overlap, so a
// worker that owns every snippet of its sources computes exactly the
// same per-source stories a single node would. The router owns no
// pipeline at all — it routes ingest to the owning worker by consistent
// hash, fans reads out to every worker, and merges the per-shard ranked
// pages under the same ordering rules the in-process index uses
// (index.MergeRanked). See DESIGN.md §3.12.
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
)

// Member is one worker shard.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// vnodesPerMember is the number of virtual nodes each member projects
// onto the ring. 128 keeps the per-member load spread within a few
// percent while the ring stays small enough to rebuild on every
// membership change.
const vnodesPerMember = 128

// Ring is an immutable consistent-hash ring over the member list, with
// optional per-source pins overriding the hash placement (operators use
// pins to keep a hot source on dedicated hardware, or to drain a member
// before removing it). Reconfiguration builds a new Ring and swaps it
// atomically; in-flight requests keep the ring they started with.
type Ring struct {
	members []Member
	points  []ringPoint    // sorted by hash
	pins    map[string]int // source → member index
	byName  map[string]int // member name → index
}

type ringPoint struct {
	hash   uint64
	member int
}

// NewRing builds a ring. Member names must be unique and non-empty;
// URLs must be unique, parseable, and http(s) with a host (a ring with
// two names for one worker double-counts its sources, and a garbage URL
// would only surface as a transport error under load); pins must
// reference existing members.
func NewRing(members []Member, pins map[string]string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	r := &Ring{
		members: append([]Member(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodesPerMember),
		pins:    make(map[string]int, len(pins)),
		byName:  make(map[string]int, len(members)),
	}
	byURL := make(map[string]string, len(members))
	for i, m := range r.members {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("cluster: member %d needs both name and url", i)
		}
		if _, dup := r.byName[m.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		u, err := url.Parse(m.URL)
		if err != nil {
			return nil, fmt.Errorf("cluster: member %q: unparseable url %q", m.Name, m.URL)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: member %q: url %q must be http(s) with a host", m.Name, m.URL)
		}
		if prev, dup := byURL[m.URL]; dup {
			return nil, fmt.Errorf("cluster: members %q and %q share url %q", prev, m.Name, m.URL)
		}
		byURL[m.URL] = m.Name
		r.byName[m.Name] = i
		for v := 0; v < vnodesPerMember; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", m.Name, v)), i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	for src, name := range pins {
		i, ok := r.byName[name]
		if !ok {
			return nil, fmt.Errorf("cluster: pin %q → unknown member %q", src, name)
		}
		r.pins[src] = i
	}
	return r, nil
}

// Members returns the member list (callers must not mutate it).
func (r *Ring) Members() []Member { return r.members }

// Pins returns the source pins as source → member name.
func (r *Ring) Pins() map[string]string {
	out := make(map[string]string, len(r.pins))
	for src, i := range r.pins {
		out[src] = r.members[i].Name
	}
	return out
}

// Owner returns the member owning the given source.
func (r *Ring) Owner(source string) Member {
	return r.members[r.OwnerIndex(source)]
}

// OwnerIndex returns the index of the member owning the given source:
// the pin if one exists, otherwise the first ring point at or after the
// source's hash (wrapping).
func (r *Ring) OwnerIndex(source string) int {
	if i, ok := r.pins[source]; ok {
		return i
	}
	h := hash64(source)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// OwnerIndexAmong returns the index of the member that owns source when
// placement is restricted to members for which eligible(i) is true —
// the failover variant of OwnerIndex. A pinned source stays pinned if
// its pin is eligible; otherwise (and for unpinned sources) the walk
// continues clockwise past ineligible members, so each quarantined
// member's sources spill to its ring successor rather than re-shuffling
// the whole ring. Returns -1 when no member is eligible.
func (r *Ring) OwnerIndexAmong(source string, eligible func(int) bool) int {
	if i, ok := r.pins[source]; ok && eligible(i) {
		return i
	}
	h := hash64(source)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(start+k)%len(r.points)]
		if eligible(p.member) {
			return p.member
		}
	}
	return -1
}

// hash64 is FNV-1a with a splitmix64 finaliser. Raw FNV of short,
// similar keys ("w2#17") leaves the high bits — which decide ring
// placement — poorly diffused, clustering a member's vnodes and
// skewing ownership several-fold; the finaliser restores avalanche.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
