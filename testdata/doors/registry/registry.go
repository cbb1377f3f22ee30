// Package registry holds a generic method that programs reach only
// through an instantiation.
package registry

type Registry[T any] struct{ m map[string]T }

func (r *Registry[T]) Get(key string) T { return r.get(key) }

func (r *Registry[T]) get(key string) T { return r.m[key] }
