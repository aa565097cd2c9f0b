package server

import "muxfs/internal/muxns"

// Sever cuts every connection while the server keeps serving, as a
// network partition would: clients reconnect to the same server.
func (s *Server) Sever() { s.sever() }

// DecodeRequest reads one request from fr the way a connection's read
// loop does, into a pooled task whose buffer pool supplies the write
// payloads; release returns the task and its buffers.
func DecodeRequest(fr *muxns.NSFrameReader) (req *muxns.NSRequest, release func(), err error) {
	t := newTask(nil)
	err = fr.ReadRequest(&t.req, t.buf)
	return &t.req, t.release, err
}
