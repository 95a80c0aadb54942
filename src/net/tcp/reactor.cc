#include "net/tcp/reactor.h"

#include <utility>

namespace sigma::net {

OutFrame make_out_frame(Message&& m) {
  OutFrame f;
  f.header_len =
      static_cast<std::uint8_t>(encode_frame_header(m, f.header.data()));
  f.body = std::move(m.body);
  return f;
}

std::size_t build_frame_iovecs(const std::deque<OutFrame>& queue,
                               std::size_t offset, struct iovec* iov,
                               std::size_t max_iov) {
  std::size_t n = 0;
  for (const OutFrame& f : queue) {
    std::size_t off = offset;
    offset = 0;  // only the front frame starts mid-wire
    if (n == max_iov) break;
    if (off < f.header_len) {
      iov[n].iov_base =
          const_cast<std::uint8_t*>(f.header.data()) + off;
      iov[n].iov_len = f.header_len - off;
      ++n;
      off = 0;
    } else {
      off -= f.header_len;
    }
    if (n == max_iov) break;
    if (off < f.body.size()) {
      iov[n].iov_base = const_cast<std::uint8_t*>(f.body.data()) + off;
      iov[n].iov_len = f.body.size() - off;
      ++n;
    }
  }
  return n;
}

void consume_sent(std::deque<OutFrame>& queue, std::size_t& offset,
                  std::size_t sent) {
  while (sent > 0 && !queue.empty()) {
    const std::size_t remaining = queue.front().wire_size() - offset;
    if (sent >= remaining) {
      sent -= remaining;
      queue.pop_front();
      offset = 0;
    } else {
      offset += sent;
      sent = 0;
    }
  }
}

}  // namespace sigma::net
