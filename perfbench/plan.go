package main

import bgl "repro"

// kind is an operation type. Engine workloads call the library
// directly; graphd-mix sends the three query kinds over HTTP.
type kind int

const (
	kindBFS   kind = iota // Cluster.BFS, or graphd /v1/bfs
	kindPath              // Cluster.Path, or graphd /v1/path
	kindMulti             // Cluster.MultiBFS
	kindSSSP              // Cluster.SSSP, or graphd /v1/sssp
)

var kindNames = [...]string{kindBFS: "bfs", kindPath: "path", kindMulti: "multibfs", kindSSSP: "sssp"}

func (k kind) String() string { return kindNames[k] }

// Every workload runs on both partitionings of the paper's Table 1
// head-to-head: index 0 is Part2D, index 1 Part1DCol.
var (
	parts     = [2]bgl.Partition{bgl.Part2D, bgl.Part1DCol}
	partNames = [2]string{"2d", "1dcol"}
)

// op is one planned operation.
type op struct {
	kind  kind
	part  int          // index into parts
	src   bgl.Vertex   // source (BFS, Path, SSSP)
	dst   bgl.Vertex   // target (Path and every graphd query)
	lanes []bgl.Vertex // MultiBFS sources
	// pick draws a Path target among the vertices at the graph's typical
	// distance from src, and dist is that distance once drawn.
	pick uint64
	dist int64
}

// splitmix64 is the seeded generator behind every operation sequence.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// planner draws a workload's operation sequence, a pure function of the
// seed and the vertex pool. Vertices come from the graph's largest
// component so that every s→t query has an answer.
type planner struct {
	rng  splitmix64
	pool []bgl.Vertex
	n    int // engine operations drawn so far
}

func newPlanner(seed uint64, pool []bgl.Vertex) *planner {
	return &planner{rng: splitmix64(seed), pool: pool}
}

func (p *planner) vertex() bgl.Vertex { return p.pool[p.rng.next()%uint64(len(p.pool))] }

// engineOp returns the next operation of an engine workload. The
// sequence cycles bulk on 2D, query on 2D, bulk on 1D-col, query on
// 1D-col, so the first four operations cover every kind on both
// partitionings and any whole number of cycles is balanced.
func (p *planner) engineOp(bulk, query kind) op {
	o := op{kind: bulk, part: p.n / 2 % 2}
	if p.n%2 == 1 {
		o.kind = query
	}
	p.n++
	switch o.kind {
	case kindMulti:
		o.lanes = make([]bgl.Vertex, bgl.MaxLanes)
		for i := range o.lanes {
			o.lanes[i] = p.vertex()
		}
	case kindPath:
		o.src, o.pick = p.vertex(), p.rng.next()
	default:
		o.src = p.vertex()
	}
	return o
}

// graphdMix is the graphload query mix bfs=6,path=1,sssp=1.
var graphdMix = [8]kind{kindBFS, kindBFS, kindBFS, kindBFS, kindBFS, kindBFS, kindPath, kindSSSP}

// mixOp returns the next graphd query for the server of partitioning
// part: a mix-weighted kind with a seeded source and target.
func (p *planner) mixOp(part int) op {
	return op{kind: graphdMix[p.rng.next()%uint64(len(graphdMix))], part: part, src: p.vertex(), dst: p.vertex()}
}

// component returns the vertices of g's largest component, ascending,
// and the graph's typical distance: the BFS level holding the most
// vertices, seen from one vertex of that component.
func component(g *bgl.Graph) (pool []bgl.Vertex, hops int) {
	var count []int
	for v, l := range g.SerialBFS(g.LargestComponentVertex()) {
		if l == bgl.Unreached {
			continue
		}
		pool = append(pool, bgl.Vertex(v))
		for int(l) >= len(count) {
			count = append(count, 0)
		}
		count[l]++
	}
	for l := range count {
		if count[l] > count[hops] {
			hops = l
		}
	}
	return pool, hops
}
