"""A test-side datagram tap: ``Network.log`` keeps only recent sends."""


def recording(send, into):
    """Wrap a network's ``send`` so every datagram it returns lands in ``into``.

    Install it on the instance (``network.send = recording(network.send,
    sent)``): ``Socket.send`` looks ``network.send`` up on every call.
    """

    def tap(source, destination, payload):
        datagram = send(source, destination, payload)
        into.append(datagram)
        return datagram

    return tap
