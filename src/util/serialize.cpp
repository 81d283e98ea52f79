#include "util/serialize.h"

#include <sys/stat.h>
#include <sys/types.h>

namespace dv {

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void ensure_directory(const std::string& path) {
  if (path.empty()) return;
  std::string partial;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      partial = path.substr(0, i == path.size() ? i : i + 1);
      if (partial.empty() || partial == "/") continue;
      struct stat st {};
      if (::stat(partial.c_str(), &st) == 0) {
        if (!S_ISDIR(st.st_mode)) {
          throw serialize_error{"not a directory: " + partial};
        }
        continue;
      }
      if (::mkdir(partial.c_str(), 0755) != 0) {
        struct stat st2 {};
        if (::stat(partial.c_str(), &st2) != 0 || !S_ISDIR(st2.st_mode)) {
          throw serialize_error{"cannot create directory: " + partial};
        }
      }
    }
  }
}

}  // namespace dv
