"""Run the finite-difference gradient verification suite and print it.

Every operation family, the routing stack, and the fully composed model are
checked against central differences at 64-bit precision.
"""

from moce import gradcheck


def main() -> None:
    print(gradcheck.format_results(gradcheck.run_all(seed=0)))


if __name__ == "__main__":
    main()
