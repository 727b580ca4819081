package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// hashRing is a consistent-hash ring over backend addresses. Each backend
// contributes vnodes virtual points so load spreads evenly even with two or
// three backends, and adding or removing one backend only remaps the keys
// that hashed into its arcs — sessions already placed elsewhere keep their
// placement, which is what keeps each backend's warm-start templates hot
// across membership changes.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	h    uint64
	addr string
}

func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV-1a barely mixes the final bytes, and vnode labels differ only in
	// their "#i" suffix — raw FNV gives each backend 64 near-consecutive
	// points, letting one backend own almost the whole ring (two real
	// loopback addresses split 901/99 over 1000 keys). A 64-bit avalanche
	// finalizer (Murmur3 fmix64) spreads the points uniformly.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func buildRing(addrs []string, vnodes int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(addrs)*vnodes)}
	for _, a := range addrs {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{h: ringHash(a + "#" + strconv.Itoa(i)), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// order returns every distinct backend address in ring order starting at
// the successor of h: the first entry is the key's home backend, the rest
// are its overflow candidates in preference order. The slice is freshly
// allocated — callers may keep it.
func (r *hashRing) order(h uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	seen := make(map[string]bool)
	var out []string
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}
