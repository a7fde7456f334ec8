package main

// The request generator. Every input a workload feeds the program is a
// pure function of (seed, client, i): the same seed gives the same
// jobs in the same order on every run, and a different seed gives a
// different order, different cold-job simulation seeds and a different
// grid seed. The program under test sees only the generated requests.

const (
	// clients is the closed loop's size: each client sends its next job
	// only after the previous one is verified, so a slower fabric
	// receives less load and jobs/s ≈ clients / mean job time.
	clients = 2
	// maxSeed keeps a seed, the client and the job index in separate
	// bit fields of one cold-job simulation seed.
	maxSeed = 1<<31 - 1
)

// foldSeed maps any --seed onto 1..maxSeed, keeping one already there,
// so that no seed a driver passes is refused.
func foldSeed(seed uint64) uint64 {
	if seed >= 1 && seed <= maxSeed {
		return seed
	}
	return seed%maxSeed + 1
}

// splitmix64 is the generator's only source of randomness.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(n int, rng *splitmix64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// generator makes the serving workloads' jobs.
type generator struct {
	seed      uint64
	workloads []string
	designs   []string
	cells     []int // seeded order over the workload × design grid
	sweeps    []int // seeded order over the workloads
}

func newGenerator(seed uint64, workloads, designs []string) *generator {
	rng := splitmix64(seed)
	return &generator{
		seed: seed, workloads: workloads, designs: designs,
		cells:  permutation(len(workloads)*len(designs), &rng),
		sweeps: permutation(len(workloads), &rng),
	}
}

// gridSeed is the simulation seed of the prefilled grid and of the
// grid workloads.
func (g *generator) gridSeed() uint64 { return g.seed }

// hit returns client's i-th store-hit job: one cell of the prefilled
// grid. The clients start half the grid apart and both cycle over all
// of it, so every key is read and none is favoured.
func (g *generator) hit(client, i int) jobRequest {
	n := len(g.cells)
	cell := g.cells[(client*n/clients+i)%n]
	return hitRequest(g.workloads[cell/len(g.designs)], g.designs[cell%len(g.designs)], g.gridSeed())
}

// coldSeed is the simulation seed of client's i-th cold job: unique
// per (seed, client, i) and never a grid seed, so no cold spec key was
// ever seen by the fabric.
func (g *generator) coldSeed(client, i int) uint64 {
	return g.seed<<32 | uint64(client+1)<<24 | uint64(i+1)
}

// cold returns client's i-th cold job: a 13-design sweep of one
// workload under a fresh simulation seed. The clients start half the
// workload order apart.
func (g *generator) cold(client, i int) jobRequest {
	n := len(g.sweeps)
	w := g.workloads[g.sweeps[(client*n/clients+i)%n]]
	return coldRequest(w, g.coldSeed(client, i))
}
