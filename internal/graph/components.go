package graph

// Components computes the connected components of g. It returns a slice
// comp of length NumNodes mapping each node to a component index in
// [0, count), and the component count. Component indices are assigned
// in order of the smallest node ID they contain.
func Components(g *Graph) (comp []int32, count int) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []NodeID
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := int32(count)
		count++
		comp[s] = c
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = c
					queue = append(queue, u)
				}
			}
		}
	}
	return comp, count
}

// LargestComponent returns the node set of the largest connected
// component, sorted by node ID.
func LargestComponent(g *Graph) []NodeID {
	comp, count := Components(g)
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	out := make([]NodeID, 0, sizes[best])
	for v, c := range comp {
		if int(c) == best {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// ComponentSizes returns the sizes of all connected components, largest
// first.
func ComponentSizes(g *Graph) []int {
	comp, count := Components(g)
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	// simple insertion-style sort, counts are small
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] > sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes
}
