// The device agent (paper §3).
//
// "On each machine, there is one process called a device agent which
// facilitates I/O on devices such as communication ports, keyboards, and
// monitors." Devices carry attributed names (TTY objects) resolved by the
// naming service to device system names; the agent refers to a device by
// its system name and returns object descriptors strictly BELOW 100 000.
//
// Devices are modelled as duplex byte channels: an input queue (what a
// keyboard would produce) and an output log (what a monitor would show),
// both inspectable by tests.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "naming/naming_service.h"

namespace rhodos::agent {

class DeviceAgent {
 public:
  explicit DeviceAgent(naming::NamingFacade* naming) : naming_(naming) {
    // The console exists on every machine and backs the default standard
    // streams (descriptors 0, 1, 2).
    (void)CreateDevice("console");
  }

  // Creates a device channel under `system_name` and registers its
  // attributed name {device: system_name} with the naming service.
  Status CreateDevice(const std::string& system_name);

  // open: resolve the attributed name via the naming service, return a
  // descriptor < 100000.
  Result<ObjectDescriptor> Open(const naming::AttributedName& name);
  Status Close(ObjectDescriptor od);

  // I/O on an open descriptor.
  Result<std::uint64_t> Read(ObjectDescriptor od,
                             std::span<std::uint8_t> out);
  Result<std::uint64_t> Write(ObjectDescriptor od,
                              std::span<const std::uint8_t> in);

  // The fixed standard-stream descriptors (0/1/2) always address the
  // console without opening.
  Result<std::uint64_t> ReadStandard(std::span<std::uint8_t> out);
  Result<std::uint64_t> WriteStandard(ObjectDescriptor std_fd,
                                      std::span<const std::uint8_t> in);

  // Test access: feed keyboard input / inspect monitor output.
  Status FeedInput(const std::string& system_name,
                   std::span<const std::uint8_t> data);
  Result<std::vector<std::uint8_t>> OutputOf(
      const std::string& system_name) const;

 private:
  struct Device {
    std::deque<std::uint8_t> input;
    std::vector<std::uint8_t> output;
  };

  Result<Device*> DeviceOf(const std::string& system_name);

  naming::NamingFacade* naming_;
  std::unordered_map<std::string, Device> devices_;
  std::unordered_map<ObjectDescriptor, std::string> open_;
  ObjectDescriptor next_descriptor_{3};  // 0,1,2 are the standard streams
};

}  // namespace rhodos::agent
