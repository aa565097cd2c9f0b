package vfs

import "strings"

// Paths in this VFS are slash-separated, absolute, and rooted at "/".
// "/" names the root directory itself.

// CleanPath canonicalizes p: ensures a leading slash, removes duplicate
// slashes, trailing slashes, and "."/".." segments (".." clamps at the
// root). An empty path cleans to "/". A path that is already clean — the
// common case on every data-path call — is returned as is, without
// allocating.
func CleanPath(p string) string {
	if isClean(p) {
		return p
	}
	segs := SplitPath(p)
	if len(segs) == 0 {
		return "/"
	}
	return "/" + strings.Join(segs, "/")
}

// isClean reports whether p is already in CleanPath's form, in one scan:
// "/" itself, or a leading slash followed by segments that are neither
// empty (a doubled or trailing slash), ".", nor "..".
func isClean(p string) bool {
	if p == "/" {
		return true
	}
	if len(p) < 2 || p[0] != '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch p[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// SplitPath returns the cleaned path segments of p. The root splits to nil.
func SplitPath(p string) []string {
	var out []string
	for _, seg := range strings.Split(p, "/") {
		switch seg {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, seg)
		}
	}
	return out
}

// ParentPath returns the parent directory of p and the final segment.
// The root's parent is the root with an empty name. For an already clean p
// both are substrings of p, so the call allocates nothing.
func ParentPath(p string) (dir, name string) {
	if isClean(p) {
		i := strings.LastIndexByte(p, '/')
		if i == 0 {
			return "/", p[1:]
		}
		return p[:i], p[i+1:]
	}
	segs := SplitPath(p)
	if len(segs) == 0 {
		return "/", ""
	}
	name = segs[len(segs)-1]
	if len(segs) == 1 {
		return "/", name
	}
	return "/" + strings.Join(segs[:len(segs)-1], "/"), name
}

// BasePath returns the final segment of p ("" for the root).
func BasePath(p string) string {
	_, name := ParentPath(p)
	return name
}

// IsRoot reports whether p cleans to the root directory.
func IsRoot(p string) bool { return CleanPath(p) == "/" }
