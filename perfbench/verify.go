package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	bgl "repro"
)

// answer is what one operation returned, reduced to what the oracles
// check and the digest covers. Engine calls fill the full arrays; graphd
// answers carry only what the wire gives back for an s→t query.
type answer struct {
	levels   [][]int32    // BFS levels per lane (one lane for BFS)
	dists    []uint32     // SSSP distances
	path     []bgl.Vertex // s→t path
	distance int64        // s→t distance (hops, or weight for SSSP); -1 if unreached
	reached  int          // vertices reached (graphd BFS)
	words    int64        // frontier words moved
	simExec  float64      // simulated seconds
	simComm  float64
}

// digest folds the deterministic content of a into h: levels,
// distances, path, words and simulated seconds.
func (a *answer) digest(h hash.Hash64) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, lane := range a.levels {
		for _, l := range lane {
			put(uint64(uint32(l)))
		}
	}
	for _, d := range a.dists {
		put(uint64(d))
	}
	for _, v := range a.path {
		put(uint64(v))
	}
	put(uint64(a.distance))
	put(uint64(a.reached))
	put(uint64(a.words))
	put(math.Float64bits(a.simExec))
	put(math.Float64bits(a.simComm))
}

// checkLevels compares a full BFS level array with the serial oracle's.
func checkLevels(g *bgl.Graph, src bgl.Vertex, got []int32) error {
	want := g.SerialBFS(src)
	if len(got) != len(want) {
		return fmt.Errorf("bfs from %d: %d levels, oracle has %d", src, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("bfs from %d: level of %d is %d, oracle %d", src, v, got[v], want[v])
		}
	}
	return nil
}

// checkDists compares a full SSSP distance array with serial Dijkstra.
func checkDists(g *bgl.Graph, src bgl.Vertex, got []uint32) error {
	want := g.SerialDijkstra(src)
	if len(got) != len(want) {
		return fmt.Errorf("sssp from %d: %d distances, oracle has %d", src, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("sssp from %d: distance of %d is %d, oracle %d", src, v, got[v], want[v])
		}
	}
	return nil
}

// checkPath requires path to run from s to t over graph edges with
// exactly want hops, the serial oracle's distance.
func checkPath(g *bgl.Graph, s, t bgl.Vertex, path []bgl.Vertex, distance, want int64) error {
	if distance != want || int64(len(path)) != want+1 {
		return fmt.Errorf("path %d→%d: distance %d over %d vertices, oracle distance %d", s, t, distance, len(path), want)
	}
	if path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("path %d→%d: runs from %d to %d", s, t, path[0], path[len(path)-1])
	}
	for i := 0; i+1 < len(path); i++ {
		if !adjacent(g, path[i], path[i+1]) {
			return fmt.Errorf("path %d→%d: %d and %d are not adjacent", s, t, path[i], path[i+1])
		}
	}
	return nil
}

func adjacent(g *bgl.Graph, u, v bgl.Vertex) bool {
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}
