package metrics

import (
	"sort"
	"strings"
)

// Schema lists every family registered on r as `name kind {label,...}`,
// sorted by name: the registry's export surface without its values.
func Schema(r *Registry) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.families))
	for name, f := range r.families {
		out = append(out, name+" "+f.kind.String()+" {"+strings.Join(f.labels, ",")+"}")
	}
	sort.Strings(out)
	return out
}
